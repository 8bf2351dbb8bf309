"""Summarise run records of one commit, or compare two commits.

    python3 perfbench/compare.py DIR            # spread of each metric
    python3 perfbench/compare.py BASE CHANGE    # parent against change
    python3 perfbench/compare.py --trajectory perfbench/trajectory.json DIR...

DIR, BASE and CHANGE hold records written by `run.py --record` (for
example by `sweep.py`).  For each workload and metric it prints each side's
median and quartiles, as `statistics.quantiles(values, n=4)` gives them.

One side: the spread is (q3 - q1) / median; it is marked `steady` when
below a third of the metric's bound in BENCHMARK.json.

Two sides, with runs paired by seed (higher is better only where the
metric says so):
  gain        the change wins at least nine tenths of the pairs, ties
              counting for neither, and the medians differ by more than
              the parent's own quartile distance
  unresolved  the spread of either side exceeds the metric's bound, and
              not every change run beats every parent run
  regression  the change's median is worse than the parent's by more than
              the bound
  same        none of the above
Metrics without a bound (the per-layer ones) get `gain` or `same` only;
counts that repeat exactly are reported as counts, not as speed-ups.

--trajectory appends one point to the trajectory file: the commit and
environment of the records in the DIRs, and each metric's median and
quartiles per workload.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict:
    """{(workload, metric): {seed: value}}, and units."""
    values: dict = defaultdict(dict)
    units = {}
    for path in sorted(directory.glob("*.json")):
        rec = json.loads(path.read_text())
        for name, m in rec["metrics"].items():
            values[(rec["workload"], name)][rec["seed"]] = m["value"]
            units[name] = m["unit"]
    return values, units


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def spread(xs: list[float]) -> float:
    q1, q2, q3 = quartiles(xs)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def metric_specs() -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    return specs


def verdict(base: dict, change: dict, spec: dict) -> tuple[str, str]:
    sign = 1 if spec["better"] == "higher" else -1
    seeds = sorted(set(base) & set(change))
    wins = sum(sign * (change[s] - base[s]) > 0 for s in seeds)
    b, c = list(base.values()), list(change.values())
    bq1, bmed, bq3 = quartiles(b)
    cmed = statistics.median(c)
    pairs = f"{wins}/{len(seeds)}"
    bound = spec.get("bound")
    all_better = min(sign * x for x in c) > max(sign * x for x in b)
    if bound is not None and max(spread(b), spread(c)) > bound and not all_better:
        return "unresolved", pairs
    if seeds and wins >= 0.9 * len(seeds) and abs(cmed - bmed) > bq3 - bq1:
        return "gain", pairs
    if bound is not None and sign * (cmed - bmed) < -bound * abs(bmed):
        return "regression", pairs
    return "same", pairs


def add_trajectory_point(path: Path, dirs: list[Path]) -> None:
    recs = [json.loads(f.read_text()) for d in dirs for f in sorted(d.glob("*.json"))]
    values: dict = defaultdict(lambda: defaultdict(list))
    for rec in recs:
        for name, m in rec["metrics"].items():
            values[rec["workload"]][name].append(m["value"])
    point = {
        "commit": sorted({r["commit"] for r in recs}),
        "python": sorted({r["python"] for r in recs}),
        "nproc": sorted({r["nproc"] for r in recs}),
        "seeds": sorted({r["seed"] for r in recs}),
        "workloads": {
            w: {name: dict(zip(("q1", "median", "q3"), quartiles(xs)), n=len(xs))
                for name, xs in sorted(metrics.items())}
            for w, metrics in sorted(values.items())
        },
    }
    points = json.loads(path.read_text()) if path.exists() else []
    path.write_text(json.dumps(points + [point], indent=1) + "\n")


def main(argv: list[str]) -> int:
    if argv[:1] == ["--trajectory"] and len(argv) > 2:
        add_trajectory_point(Path(argv[1]), [Path(a) for a in argv[2:]])
        return 0
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    specs = metric_specs()
    sides = [load(Path(a)) for a in argv]
    keys = sorted(set().union(*(s[0] for s in sides)))
    status = 0
    for workload, name in keys:
        spec = specs.get(name, {"better": "lower"})
        unit = sides[0][1].get(name, "")
        cols = []
        for values, _ in sides:
            xs = list(values.get((workload, name), {}).values())
            if xs:
                q1, med, q3 = quartiles(xs)
                cols.append(f"{med:11.5g} [{q1:.5g}, {q3:.5g}] n={len(xs)}")
            else:
                cols.append(f"{'-':>11}")
        line = f"{workload:14s} {name:38s} {unit:6s} " + " | ".join(cols)
        if len(sides) == 1:
            xs = list(sides[0][0][(workload, name)].values())
            bound = spec.get("bound")
            if bound is not None:
                s = spread(xs)
                steady = s < bound / 3
                status |= not steady
                line += f"  spread={s:.4f} bound={bound} {'steady' if steady else 'NOT STEADY'}"
        else:
            base = sides[0][0].get((workload, name), {})
            change = sides[1][0].get((workload, name), {})
            if base and change:
                v, pairs = verdict(base, change, spec)
                delta = (statistics.median(change.values()) / statistics.median(base.values())
                         - 1) if statistics.median(base.values()) else 0.0
                line += f"  {delta:+.2%} won {pairs} {v}"
                status |= v == "regression"
        print(line)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
