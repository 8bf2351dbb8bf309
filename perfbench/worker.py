"""Child interpreter of the benchmark: one fresh process per workload run.

    python3 perfbench/worker.py setup|run|trace

It imports the package from the checkout's `src/`, builds the CLI parser and
prints `ready`; that is where set-up ends.  In `setup` mode it then prints
the median of three compile_probe() times and exits.  Otherwise it reads
one JSON line from stdin, the list of argv to run, and runs them one after
another through `thompson_fp.cli.run` (one client, a closed loop, no
threads).  Before each job it collects garbage and probes the host speed,
untimed; the job is timed around that call.  It prints one JSON line per
job, then a summary line; in `trace` mode the tracer is installed before
the first job and the spans follow the summary.
"""

from __future__ import annotations

import base64
import contextlib
import gc
import io
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def probe() -> float:
    """Seconds taken by a fixed reference computation, with the collector
    off: big-integer arithmetic with dict traffic, then building and walking
    a graph of small tuples.  It runs before every job and after the last,
    so the parent can tell how fast the host ran around each job."""
    gc.disable()
    try:
        t0 = perf_counter()
        x, table, seen = 3, {}, []
        for i in range(4000):
            x = (x * 6364136223846793005 + 1442695040888963407) % PROBE_MODULUS
            table[i & 511] = (x & 1023, i)
            seen.append(table.get((i * 7) & 511))
        nodes = [None]
        for i in range(1, 6000):
            nodes.append((nodes[i // 2], nodes[i // 3], i))
        for node in nodes[::3]:
            while node is not None:
                node = node[0]
        return perf_counter() - t0
    finally:
        gc.enable()


PROBE_MODULUS = 2**128 - 159

# Source text for compile_probe(): 150 small classes, about 53 KB.
PROBE_SOURCE = "\n".join(
    f"class C{i}:\n"
    f"    def f(self, a, b=({i}, 'x{i}'), *c, **d):\n"
    f"        e = [a + k for k in range(b[0]) if k % 3 == {i % 3}]\n"
    f"        with open(a) as g:\n"
    f"            e.append(g.read().split(',')[{i}:])\n"
    f"        try:\n"
    f"            return {{'k': e, 'n': len(e), 'm': d.get('x{i}', None)}}\n"
    f"        except (KeyError, ValueError) as h:\n"
    f"            raise RuntimeError(str(h)) from h\n"
    for i in range(150)
)


def compile_probe() -> float:
    """Seconds taken to compile PROBE_SOURCE, with the collector off.  The
    set-up child runs it after `ready`: interpreter start-up follows the
    host's speed much more closely through this probe than through probe()."""
    gc.disable()
    try:
        t0 = perf_counter()
        compile(PROBE_SOURCE, "<probe>", "exec")
        return perf_counter() - t0
    finally:
        gc.enable()


def main() -> None:
    mode = sys.argv[1]
    sys.path.insert(0, str(ROOT / "src"))
    from thompson_fp import cli

    cli.build_parser()
    out = sys.stdout
    out.write("ready\n")
    out.flush()
    if mode == "setup":
        out.write(f"{statistics.median(compile_probe() for _ in range(3))}\n")
        return
    jobs = json.loads(sys.stdin.readline())
    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    t_begin = perf_counter()
    for argv in jobs:
        gc.collect()  # no job pays for collecting the garbage of the ones before
        probe_s = probe()
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            t0 = perf_counter()
            try:
                rc = cli.run(argv)
            except Exception:  # a crash is this job's failure, not the run's
                rc = -1
                traceback.print_exc()
            seconds = perf_counter() - t0
        out.write(json.dumps({"rc": rc, "seconds": seconds, "probe_s": probe_s,
                              "stdout": stdout.getvalue(),
                              "stderr": stderr.getvalue()[-2000:]}) + "\n")
    wall_s = perf_counter() - t_begin
    probe_end_s = probe()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out.write(json.dumps({"wall_s": wall_s, "probe_end_s": probe_end_s,
                          "peak_rss_mb": peak_kb / 1024}) + "\n")
    if tracer is not None:
        arrays = tracer.arrays()
        out.write(json.dumps({
            "names": tracer.names,
            "counters": tracer.counters,
            "span_cost_s": tracer.span_cost(),
            "arrays": {k: [a.typecode, base64.b64encode(a.tobytes()).decode()]
                       for k, a in arrays.items()},
        }) + "\n")
    out.flush()


if __name__ == "__main__":
    main()
