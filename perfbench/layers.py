"""Probes on gplab's layer boundaries and the per-layer metrics they yield.

Import only after gplab is importable: the probe targets are gplab objects.
Every count is per pass (one run of a workload's operation list).
"""

from __future__ import annotations

import importlib

from tracer import Probe, Tracer

# (metric name, unit, better); the order is the order of BENCHMARK.json
PER_LAYER = [
    ("realnum.mul.calls", "count", "lower"),
    ("realnum.mul.us", "us", "lower"),
    ("realnum.inverse.calls", "count", "lower"),
    ("realnum.inverse.us", "us", "lower"),
    ("realnum.floor.calls", "count", "lower"),
    ("realnum.floor.us", "us", "lower"),
    ("realnum.sign.calls", "count", "lower"),
    ("realnum.sign.us", "us", "lower"),
    ("realnum.root_enclosure.calls", "count", "lower"),
    ("realnum.root_enclosure.s", "s", "lower"),
    ("realnum.stream_refine.calls", "count", "lower"),
    ("realnum.stream_refine.s", "s", "lower"),
    ("gpexpr.points", "count", "higher"),
    ("gpexpr.us_per_point", "us", "lower"),
    ("gpexpr.ns_per_node", "ns", "lower"),
    ("gpexpr.exact_fallbacks", "count", "lower"),
    ("gpexpr.const_enclosure_s", "s", "lower"),
    ("gpexpr.parse_s", "s", "lower"),
    ("constructions.points", "count", "higher"),
    ("constructions.prefilter_points_per_s", "1/s", "higher"),
    ("constructions.confirmations", "count", "lower"),
    ("constructions.suspect_rate", "ratio", "lower"),
    ("constructions.confirm_us", "us", "lower"),
    ("constructions.confirm_hit_rate", "ratio", "higher"),
    ("constructions.build_s", "s", "lower"),
    ("cf.best_approx_1d_s", "s", "lower"),
    ("cf.best_approx_2d_s", "s", "lower"),
    ("nilorbit.points", "count", "higher"),
    ("nilorbit.us_per_point", "us", "lower"),
    ("nilorbit.exact_points", "count", "lower"),
    ("nilorbit.orbit_point_us", "us", "lower"),
    ("ipsearch.nodes", "count", "lower"),
    ("ipsearch.nodes_per_s", "1/s", "higher"),
    ("ipsearch.member_scan_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.artifact_digest_mismatches", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("design.src_lines", "lines", "lower"),
]

# metrics that count work, reported as whole numbers from the first traced
# pass; the others are times or ratios, reported as medians over passes
COUNTS = {name for name, unit, _ in PER_LAYER if unit == "count"}


def make_tracer() -> Tracer:
    from gplab import cf, cli, ipsearch, nilorbit
    from gplab.constructions import Certificate, CubicConstruction, cubic, quadratic, verysparse
    from gplab.gpexpr import evaluate, walk
    from gplab.realnum import FieldElement, NumberField, RefinableReal

    parse_mod = importlib.import_module("gplab.gpexpr.parse")
    sizes: dict[int, int] = {}

    def count_nodes(tr, args):
        expr = args[0]
        size = sizes.get(id(expr))
        if size is None:
            size = sizes[id(expr)] = sum(1 for _ in walk(expr))
        tr.counts["gpexpr.nodes"] += size

    def count_fallback(tr, args):
        if tr.parent() == "gpexpr.eval_indicator":
            tr.counts["gpexpr.exact_fallbacks"] += 1

    def scan_done(tr, args, result, seconds):
        if tr.active["constructions.members"]:
            return  # a nested scan (a transfer reading its source set)
        _, lo, hi = args[:3]
        tr.counts["constructions.points"] += max(0, hi - lo + 1)
        tr.counts["constructions.members_found"] += len(result)
        if tr.active["ipsearch.search"]:
            tr.counts["ipsearch.member_scan_s"] += seconds

    def under_scan(tr):
        return tr.active["constructions.members"] > 0

    def threshold_done(tr, args, result, seconds):
        if not result:
            tr.counts["nilorbit.exact_points"] += 1

    def search_done(tr, args, result, seconds):
        tr.counts["ipsearch.nodes"] += result.nodes_explored

    probes = [
        Probe("realnum.mul", [(FieldElement, "__mul__"), (FieldElement, "__rmul__")]),
        Probe("realnum.inverse", [(FieldElement, "inverse")]),
        Probe("realnum.floor", [(FieldElement, "floor")]),
        Probe("realnum.sign", [(FieldElement, "sign")]),
        Probe("realnum.root_enclosure", [(NumberField, "root_enclosure")]),
        Probe("realnum.stream_refine", [(RefinableReal, "interval")]),
        Probe("gpexpr.eval_indicator", [(evaluate, "eval_indicator")], before=count_nodes),
        # only the evaluator's own bindings: fallbacks and constant enclosures
        Probe(
            "gpexpr.eval_exact", [(evaluate, "eval_exact")], before=count_fallback, everywhere=False
        ),
        Probe("gpexpr.const_enclosure", [(evaluate, "interval_of")], everywhere=False),
        Probe("gpexpr.parse", [(parse_mod, "parse")]),
        Probe("constructions.members", [(Certificate, "members")], after=scan_done),
        Probe(
            "constructions.confirm",
            [(CubicConstruction, "member"), (FieldElement, "dist_to_int")],
            when=under_scan,
        ),
        Probe(
            "constructions.build",
            [
                (cubic, "cubic_pisot_set"),
                (quadratic, "fibonacci_like_set"),
                (quadratic, "quadratic_pisot_unit_set"),
                (quadratic, "norm_plus_filtered_set"),
                (verysparse, "very_sparse_set"),
            ],
        ),
        Probe("cf.best_approx_1d", [(cf, "best_approx_1d")]),
        Probe("cf.best_approx_2d", [(cf, "best_approx_2d")]),
        Probe("nilorbit.point", [(nilorbit, "small_value_indicator")]),
        Probe("nilorbit.threshold", [(nilorbit, "_threshold_at_least_half")], after=threshold_done),
        Probe("nilorbit.orbit_point", [(nilorbit, "orbit_point")]),
        Probe("ipsearch.search", [(ipsearch, "_search")], after=search_done),
        Probe("cli.main", [(cli, "main")]),
    ]
    return Tracer(probes)


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass (harness-level ones excluded)."""
    calls, secs, own, k = tr.calls, tr.seconds, tr.self_seconds, tr.counts

    def ratio(a, b, scale=1.0):
        return a / b * scale if b else 0.0

    m: dict[str, float] = {}
    for key in ("mul", "inverse", "floor", "sign"):
        probe = f"realnum.{key}"
        m[f"{probe}.calls"] = calls[probe]
        m[f"{probe}.us"] = ratio(secs[probe], calls[probe], 1e6)
    for key in ("root_enclosure", "stream_refine"):
        probe = f"realnum.{key}"
        m[f"{probe}.calls"] = calls[probe]
        m[f"{probe}.s"] = secs[probe]

    points = calls["gpexpr.eval_indicator"]
    m["gpexpr.points"] = points
    m["gpexpr.us_per_point"] = ratio(secs["gpexpr.eval_indicator"], points, 1e6)
    m["gpexpr.ns_per_node"] = ratio(secs["gpexpr.eval_indicator"], k["gpexpr.nodes"], 1e9)
    m["gpexpr.exact_fallbacks"] = k["gpexpr.exact_fallbacks"]
    m["gpexpr.const_enclosure_s"] = secs["gpexpr.const_enclosure"]
    m["gpexpr.parse_s"] = secs["gpexpr.parse"]

    scanned = k["constructions.points"]
    confirms = calls["constructions.confirm"]
    m["constructions.points"] = scanned
    m["constructions.prefilter_points_per_s"] = ratio(
        scanned, secs["constructions.members"] - secs["constructions.confirm"]
    )
    m["constructions.confirmations"] = confirms
    m["constructions.suspect_rate"] = ratio(confirms, scanned)
    m["constructions.confirm_us"] = ratio(secs["constructions.confirm"], confirms, 1e6)
    m["constructions.confirm_hit_rate"] = ratio(k["constructions.members_found"], confirms)
    m["constructions.build_s"] = secs["constructions.build"]

    m["cf.best_approx_1d_s"] = secs["cf.best_approx_1d"]
    m["cf.best_approx_2d_s"] = secs["cf.best_approx_2d"]

    m["nilorbit.points"] = calls["nilorbit.point"]
    m["nilorbit.us_per_point"] = ratio(secs["nilorbit.point"], calls["nilorbit.point"], 1e6)
    m["nilorbit.exact_points"] = k["nilorbit.exact_points"]
    m["nilorbit.orbit_point_us"] = ratio(
        secs["nilorbit.orbit_point"], calls["nilorbit.orbit_point"], 1e6
    )

    nodes = k["ipsearch.nodes"]
    m["ipsearch.nodes"] = nodes
    m["ipsearch.nodes_per_s"] = ratio(nodes, secs["ipsearch.search"] - k["ipsearch.member_scan_s"])
    m["ipsearch.member_scan_s"] = k["ipsearch.member_scan_s"]

    m["cli.self_s"] = own["cli.main"]
    for name in COUNTS & m.keys():
        m[name] = int(m[name])
    return m
