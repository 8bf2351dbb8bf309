"""Smoke check of the benchmark at its smallest size; exits 0 when it holds.

    python3 perfbench/smoke.py

For every workload it runs `run.py --seconds 1` untraced and twice traced,
and checks that each run is correct, reports exactly the metrics that
BENCHMARK.json names, and that every count repeats exactly between the two
traced runs.  It also checks that BENCHMARK.json matches the workloads and
layers the code defines, and that the benchmark fails without printing a
result when the package source is missing.  Takes under two minutes.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run(cwd: Path, workload: str, trace: int) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc.returncode, proc.stdout


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []

    def expect(cond: bool, what: str) -> None:
        if not cond:
            problems.append(what)
            print(f"FAIL {what}", flush=True)

    expect([w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS),
           "BENCHMARK.json workloads match workloads.WORKLOADS")
    expect([m["name"] for m in bench["per_layer"]] == list(layers.PER_LAYER),
           "BENCHMARK.json per_layer matches layers.PER_LAYER")
    for m in bench["end_to_end"] + bench["per_layer"]:
        expect(bool(NAME.fullmatch(m["name"])), f"metric name {m['name']!r}")
    expect(all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"]), "bounds in (0, 0.25]")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    expect(bounds.get("setup_s") == max(bounds.values()), "setup_s has the largest bound")

    end_to_end = {m["name"] for m in bench["end_to_end"]}
    per_layer = {m["name"] for m in bench["per_layer"]}
    for w in workloads.WORKLOADS:
        rc, out = run(ROOT, w, 0)
        result = json.loads(out.splitlines()[-1]) if rc == 0 else {}
        expect(rc == 0 and result["correct"] and result["failed"] == 0,
               f"{w}: untraced run is correct")
        expect(set(result.get("metrics", ())) == end_to_end, f"{w}: end-to-end metric names")
        traced = []
        for _ in range(2):
            rc, out = run(ROOT, w, 1)
            result = json.loads(out.splitlines()[-1]) if rc == 0 else {}
            expect(rc == 0 and result["correct"], f"{w}: traced run is correct")
            expect(set(result.get("metrics", ())) == per_layer, f"{w}: per-layer metric names")
            traced.append(result.get("metrics", {}))
        counts = [k for k, (unit, _) in layers.PER_LAYER.items() if unit in ("count", "bytes")]
        expect(all(traced[0].get(k) == traced[1].get(k) for k in counts),
               f"{w}: counts repeat between two traced runs")
        print(f"ok {w}", flush=True)

    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        rc, out = run(Path(tmp), "census", 0)
        expect(rc != 0 and not out.strip(), "fails without the package source")

    print("smoke check passed" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
