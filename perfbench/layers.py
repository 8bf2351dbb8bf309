"""Per-layer metrics derived from the spans of one traced run.

A layer is a package module.  A span's self time is its duration minus the
time of its direct children (and of their hooks); a layer's `self_s` sums
that over the layer's spans, so time spent in another layer's functions is
not counted twice.  `*.time_slope` is the log-log slope of a function's
time against the size of its input, pooled within groups of equal p or
word kind; it is fitted only on job-sized inputs (see SLOPE_MIN_SIZE) and
reads 0 where a workload has fewer than two such sizes.
"""

from __future__ import annotations

import math

LAYERS = ("cli", "words", "diagrams", "fordham", "normal_forms", "series", "automaton",
          "rates", "oracle")

# metric name -> traced function whose calls it counts
CALLS = {
    "words.parse_word.calls": "words.parse_word",
    "diagrams.evaluate.calls": "diagrams.evaluate",
    "diagrams.compose.calls": "diagrams.compose",
    "diagrams.reduce.calls": "diagrams.reduce",
    "fordham.tree_weight.calls": "fordham.tree_weight",
    "fordham.positive_length.calls": "fordham.positive_length",
    "normal_forms.to_infinite_nf.calls": "normal_forms.to_infinite_nf",
    "series.mul.calls": "series.PowerSeries.__mul__",
    "series.solve_M.calls": "series.solve_M",
    "series.positive_growth_series.calls": "series.positive_growth_series",
    "automaton.build_automaton.calls": "automaton.build_automaton",
    "automaton.count_paths.calls": "automaton.count_paths",
    "rates.zeta.calls": "rates.zeta",
    "rates.xi.calls": "rates.xi",
}

# Inputs of the `verify` suite are words of at most 12 letters and series of
# order 16; job inputs are longer.  Slopes use job inputs only.
SLOPE_MIN_SIZE = {"series": 18, "normal_forms": 32, "diagrams": 32}

# name -> (unit, better); the order is the order of the report.
PER_LAYER = {}
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.self_s"] = ("s", "lower")
    if _layer == "normal_forms":
        PER_LAYER["normal_forms.positive.self_s"] = ("s", "lower")
        PER_LAYER["normal_forms.signed.self_s"] = ("s", "lower")
for _name in CALLS:
    PER_LAYER[_name] = ("count", "lower")
PER_LAYER.update({
    "cli.output_bytes": ("bytes", "lower"),
    "diagrams.carets_out": ("count", "lower"),
    "diagrams.time_slope": ("1", "lower"),
    "fordham.carets_weighed": ("count", "lower"),
    "normal_forms.letters_in": ("count", "lower"),
    "normal_forms.time_slope": ("1", "lower"),
    "series.coeffs_out": ("count", "lower"),
    "series.time_slope": ("1", "lower"),
    "oracle.trees_scanned": ("count", "lower"),
    "oracle.census_yield": ("ratio", "higher"),
    "oracle.ball_elements": ("count", "lower"),
    "oracle.compose_per_ball_element": ("ratio", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
})


def _pooled_slope(points: dict) -> float:
    """Least-squares slope of log t on log n, with one intercept per group."""
    sxy = sxx = 0.0
    for pts in points.values():
        xs = [math.log(n) for n, _ in pts]
        ys = [math.log(t) for _, t in pts]
        mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
        sxy += sum((x - mx) * (y - my) for x, y in zip(xs, ys))
        sxx += sum((x - mx) ** 2 for x in xs)
    return sxy / sxx if sxx > 0 else 0.0


def derive(names: list[str], spans: dict, counters: dict, output_bytes: int,
           traced_s: float, span_cost_s: float) -> dict[str, float]:
    """Every PER_LAYER metric, from the arrays a Tracer filled, the seconds
    the traced jobs took and the measured cost of one span.

    trace.overhead_ratio is the traced time over the traced time less what
    the tracer added to it: every span's cost and every hook's time."""
    name, parent = spans["name"], spans["parent"]
    start, end, hook_s = spans["start"], spans["end"], spans["hook_s"]
    size, tag = spans["size"], spans["tag"]
    n = len(start)
    layer_of = [nm.split(".", 1)[0] for nm in names]
    nid = {nm: i for i, nm in enumerate(names)}
    span_layer = [layer_of[k] for k in name]

    self_s = [end[i] - start[i] for i in range(n)]
    for i in range(n):
        j = parent[i]
        if j >= 0:
            self_s[j] -= end[i] - start[i] + hook_s[i]

    out: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for i in range(n):
        out[f"{span_layer[i]}.self_s"] += self_s[i]

    # normal_forms self time, split by whether the word that entered the
    # layer was positive.
    nf_kind = [-1] * n
    pos = neg = 0.0
    for i in range(n):
        if span_layer[i] != "normal_forms":
            continue
        j = parent[i]
        nf_kind[i] = nf_kind[j] if j >= 0 and span_layer[j] == "normal_forms" else tag[i]
        if nf_kind[i] == 1:
            pos += self_s[i]
        elif nf_kind[i] == 0:
            neg += self_s[i]
    out["normal_forms.positive.self_s"] = pos
    out["normal_forms.signed.self_s"] = neg

    calls = [0] * len(names)
    for k in name:
        calls[k] += 1
    for metric, fn in CALLS.items():
        out[metric] = calls[nid[fn]] if fn in nid else 0

    letters = 0
    for i in range(n):
        if span_layer[i] == "normal_forms" and size[i] > 0:
            j = parent[i]
            if j < 0 or span_layer[j] != "normal_forms":
                letters += size[i]
    out["normal_forms.letters_in"] = letters

    # compose calls made inside the BFS ball search
    ball = nid.get("oracle.bfs_group_ball", -2)
    compose = nid.get("diagrams.compose", -2)
    in_ball = bytearray(n)
    ball_compose = 0
    for i in range(n):
        j = parent[i]
        if j >= 0 and (in_ball[j] or name[j] == ball):
            in_ball[i] = 1
            ball_compose += name[i] == compose

    slopes = {"series": {}, "normal_forms": {}, "diagrams": {}}
    entry = {nid.get(f): layer for f, layer in (
        ("series.positive_growth_series", "series"),
        ("normal_forms.to_infinite_nf", "normal_forms"),
        ("normal_forms.finite_nf", "normal_forms"),
        ("diagrams.evaluate", "diagrams"),
    ) if f in nid}
    for i in range(n):
        layer = entry.get(name[i])
        if layer is None or size[i] < SLOPE_MIN_SIZE[layer]:
            continue
        j = parent[i]
        if layer != "diagrams" and j >= 0 and span_layer[j] == layer:
            continue  # finite_nf's inner to_infinite_nf
        slopes[layer].setdefault((name[i], tag[i]), []).append((size[i], end[i] - start[i]))
    for layer, points in slopes.items():
        usable = {k: v for k, v in points.items() if len({s for s, _ in v}) > 1}
        out[f"{layer}.time_slope"] = _pooled_slope(usable)

    scanned = counters["oracle.trees_scanned"]
    elements = counters["oracle.ball_elements"]
    out.update({
        "cli.output_bytes": output_bytes,
        "diagrams.carets_out": counters["diagrams.carets_out"],
        "fordham.carets_weighed": counters["fordham.carets_weighed"],
        "series.coeffs_out": counters["series.coeffs_out"],
        "oracle.trees_scanned": scanned,
        "oracle.census_yield": counters["oracle.trees_counted"] / scanned if scanned else 0.0,
        "oracle.ball_elements": elements,
        "oracle.compose_per_ball_element": ball_compose / elements if elements else 0.0,
        "trace.overhead_ratio": traced_s / (traced_s - n * span_cost_s - sum(hook_s)),
    })
    return {k: out[k] for k in PER_LAYER}
