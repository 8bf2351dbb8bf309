"""Benchmark of thompson_fp: seeded lists of whole CLI jobs, timed end to end.

    python3 perfbench/run.py --workload growth-series|census|word-ops \
        --seed N --seconds S --trace 0|1 [--record DIR]

Run it from the root of a checkout; it imports the package from `src/`.
Each run starts one fresh child interpreter (`worker.py`), with
PYTHONHASHSEED=0, that runs the workload's job list through
`thompson_fp.cli.run` in a closed loop.  The job list comes from the seed
alone and is sized for S of about 22 seconds at the seed commit on a 2-core
machine; S of 2 or less selects a small list for the smoke check.

--trace 0 reports the end-to-end metrics (tracing off):
  wall_s       time to finish the job list
  job_p50_s    median job latency
  job_tail_s   job latency at the highest percentile with at least ten jobs
               beyond it (the percentile and sample count are printed)
  setup_s      interpreter start, package import and parser build, the
               median of several fresh interpreters
These four are in seconds at a reference host speed: the host this runs on
changes speed by tens of per cent over minutes, as other tenants come and
go.  The child times a fixed probe computation before every job and after
the last; each job's seconds are scaled by PROBE_REF_S over the mean of the
probe times just before and just after it.  Each set-up child times a
compile probe once it is ready, and its set-up seconds are scaled by
SETUP_PROBE_REF_S over that time.  The raw figures are printed and
recorded beside them.
  peak_rss_mb  peak resident memory of the child
--trace 1 runs the list once, traced, in one child, and reports the
per-layer metrics of `layers.py`.

Every job's output is checked after the child has finished.  The last line
of stdout is one JSON object with `correct`, `attempted`, `failed` (jobs
with a non-zero exit or a failed check) and `metrics`; failed/attempted is
printed above it as failed_ratio.  --record DIR also writes the whole run,
environment included, to DIR/<workload>-seed<N>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import base64
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from array import array
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_SAMPLES = 9
DEADLINE_S = 170
SMOKE_SECONDS = 2
TAIL_BEYOND = 10
HASH_SEED = "0"
PROBE_REF_S = 0.004  # worker.probe() at the reference host speed (2-core VM, Python 3.11)
SETUP_PROBE_REF_S = 0.034  # worker.compile_probe() at the reference host speed


class BenchError(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = HASH_SEED
    env.pop("PYTHONPATH", None)
    return env


def _spawn(mode: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-s", str(WORKER), mode], cwd=ROOT, env=_child_env(),
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def _await_ready(proc: subprocess.Popen) -> None:
    line = proc.stdout.readline()
    if line != "ready\n":
        proc.kill()
        _, err = proc.communicate()
        raise BenchError(f"child did not start: {line!r} {err[-2000:]}")


def measure_setup() -> tuple[list[float], list[float]]:
    """Seconds from spawning a fresh interpreter to its `ready` line, after
    one unmeasured start that leaves the bytecode caches warm: as measured,
    and scaled to the reference host speed by the compile probe that each
    set-up child times after `ready`."""
    raw, scaled = [], []
    for k in range(SETUP_SAMPLES + 1):
        t0 = perf_counter()
        with _spawn("setup") as proc:
            _await_ready(proc)
            t1 = perf_counter()
            out, _ = proc.communicate(timeout=30)
        if proc.returncode != 0:
            raise BenchError(f"setup child exited {proc.returncode}")
        if k:
            raw.append(t1 - t0)
            scaled.append((t1 - t0) * SETUP_PROBE_REF_S / float(out))
    return raw, scaled


def run_child(argvs: list[list[str]], traced: bool, deadline: float) -> dict:
    with _spawn("trace" if traced else "run") as proc:
        try:
            _await_ready(proc)
            out, err = proc.communicate(json.dumps(argvs) + "\n",
                                        timeout=max(1.0, deadline - perf_counter()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError("the job list did not finish before the deadline")
    if proc.returncode != 0:
        raise BenchError(f"child exited {proc.returncode}: {err[-2000:]}")
    lines = out.splitlines()
    results = [json.loads(line) for line in lines[: len(argvs)]]
    summary = json.loads(lines[len(argvs)])
    summary["jobs"] = results
    if traced:
        spans = json.loads(lines[len(argvs) + 1])
        spans["arrays"] = {k: array(code, base64.b64decode(data))
                           for k, (code, data) in spans["arrays"].items()}
        summary["spans"] = spans
    return summary


def host_scaled(child: dict) -> list[float]:
    """Each job's seconds at the reference host speed."""
    probes = [r["probe_s"] for r in child["jobs"]] + [child["probe_end_s"]]
    return [r["seconds"] * PROBE_REF_S / ((probes[k] + probes[k + 1]) / 2)
            for k, r in enumerate(child["jobs"])]


def tail(values: list[float]) -> dict:
    """The highest order statistic with at least TAIL_BEYOND samples above
    it (the maximum if there are too few), with its percentile."""
    xs = sorted(values)
    k = len(xs) - 1 - TAIL_BEYOND
    if k < 0:
        k = len(xs) - 1
    return {"value": xs[k], "percentile": 100.0 * (k + 1) / len(xs), "samples": len(xs),
            "beyond": len(xs) - 1 - k}


def check_outputs(jobs: list[dict], results: list[dict]) -> dict[int, str]:
    """{job index: why} for every job that exited non-zero or whose output
    failed its check."""
    import checks

    failures = {}
    for i, (job, res) in enumerate(zip(jobs, results)):
        try:
            checks.check_job(job, res["rc"], res["stdout"])
        except (checks.CheckFailed, ValueError, KeyError, IndexError, TypeError) as exc:
            failures[i] = f"{type(exc).__name__}: {exc} {res['stderr'][-300:]}"
    return failures


def commit_id() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.exists():
                return loose.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
        return ref
    except OSError:
        return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--record", type=Path, help="directory for the run record")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "thompson_fp" / "cli.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'thompson_fp'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import layers
    import workloads

    try:
        jobs = workloads.make_jobs(args.workload, args.seed, args.seconds <= SMOKE_SECONDS)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    argvs = [j["argv"] for j in jobs]
    deadline = perf_counter() + DEADLINE_S
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit_id(), "python": platform.python_version(),
        "nproc": os.cpu_count(), "pythonhashseed": HASH_SEED,
        "loadavg_before": os.getloadavg(),
        "job_digest": hashlib.sha256(json.dumps(argvs).encode()).hexdigest(),
        "jobs": len(jobs),
    }
    try:
        metrics: dict[str, tuple[float, str]] = {}
        if args.trace == 0:
            setup_raw, setup = measure_setup()
            run = run_child(argvs, False, deadline)
            results = run["jobs"]
            raw = [r["seconds"] for r in results]
            scaled = host_scaled(run)
            job_tail = tail(scaled)
            metrics = {
                "wall_s": (sum(scaled), "s"),
                "job_p50_s": (statistics.median(scaled), "s"),
                "job_tail_s": (job_tail["value"], "s"),
                "setup_s": (statistics.median(setup), "s"),
                "peak_rss_mb": (run["peak_rss_mb"], "MB"),
            }
            record.update(setup_samples=setup, job_seconds=raw, job_seconds_scaled=scaled,
                          probes=[r["probe_s"] for r in results] + [run["probe_end_s"]],
                          setup_samples_raw=setup_raw, tail=job_tail, raw={
                              "wall_s": sum(raw), "job_p50_s": statistics.median(raw),
                              "job_tail_s": tail(raw)["value"],
                              "setup_s": statistics.median(setup_raw)})
        else:
            traced = run_child(argvs, True, deadline)
            results = traced["jobs"]
            spans = traced.pop("spans")
            out_bytes = sum(len(r["stdout"].encode()) for r in results)
            derived = layers.derive(spans["names"], spans["arrays"], spans["counters"],
                                    out_bytes, sum(r["seconds"] for r in results),
                                    spans["span_cost_s"])
            metrics = {k: (v, layers.PER_LAYER[k][0]) for k, v in derived.items()}
            record.update(spans=len(spans["arrays"]["start"]), traced_wall_s=traced["wall_s"],
                          span_cost_s=spans["span_cost_s"])
        t_check = perf_counter()
        failures = check_outputs(jobs, results)
        record["check_s"] = perf_counter() - t_check
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failed = len(failures)
    failures = [f"job {i} {' '.join(argvs[i])[:80]}: {why}" for i, why in sorted(failures.items())]
    record.update(loadavg_after=os.getloadavg(), attempted=len(jobs), failed=failed,
                  failed_ratio=failed / len(jobs), failures=failures,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    for f in failures[:20]:
        print(f"FAILED {f}")
    print(f"# {args.workload} seed={args.seed} jobs={len(jobs)} digest={record['job_digest'][:16]} "
          f"commit={record['commit'][:12]} python={record['python']} nproc={record['nproc']} "
          f"load={record['loadavg_before'][0]:.2f}->{record['loadavg_after'][0]:.2f} "
          f"PYTHONHASHSEED={HASH_SEED}")
    for k, (v, u) in metrics.items():
        print(f"{k:40s} {v:14.6g} {u}")
    if args.trace == 0:
        for k, v in record["raw"].items():
            print(f"{'raw ' + k:40s} {v:14.6g} s (host speed as it came)")
        t = record["tail"]
        print(f"{'job_tail_s percentile':40s} {t['percentile']:14.1f} % "
              f"({t['beyond']} of {t['samples']} jobs beyond)")
    print(f"{'failed_ratio':40s} {failed / len(jobs):14.6g} ratio ({failed}/{len(jobs)})")
    if args.record:
        args.record.mkdir(parents=True, exist_ok=True)
        path = args.record / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": failed == 0, "attempted": len(jobs), "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
