"""Run the benchmark over several seeds, on one checkout or alternating two.

    python3 perfbench/sweep.py --out DIR [--checkout PATH [--checkout PATH]]
        [--workload W ...] [--seeds 1-10] [--trace 0|1]

Each run is `python3 perfbench/run.py ... --record` inside the checkout,
for BENCHMARK.json's run_seconds, so each side runs its own copy of the
package with the same benchmark settings.  With two checkouts the order
alternates from seed to seed.  Records land in DIR/<k>-<checkout name>/;
`compare.py` reads them.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--checkout", type=Path, action="append")
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    checkouts = [c.resolve() for c in (args.checkout or [ROOT])]
    if len(checkouts) > 2:
        ap.error("at most two checkouts")
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    outs = [(args.out / f"{k}-{c.name}").resolve() for k, c in enumerate(checkouts)]
    status = 0
    for workload in workloads:
        for n, seed in enumerate(args.seeds):
            order = list(zip(checkouts, outs))
            if n % 2:
                order.reverse()
            for checkout, out in order:
                cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
                       "--seed", str(seed), "--seconds", str(seconds),
                       "--trace", str(args.trace), "--record", str(out)]
                proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                                      timeout=900)
                print(f"== {checkout.name} {workload} seed={seed} exit={proc.returncode}")
                print("\n".join(proc.stdout.splitlines()[:-1]), flush=True)
                if proc.returncode != 0:
                    print(proc.stderr[-2000:], file=sys.stderr)
                    status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
