"""Tests of the benchmark itself, at a tiny size.

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference as ref  # noqa: E402
import run  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from tracer import leftover_wrappers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

sys.path.insert(0, str(run.SRC))

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def results(request):
    name = request.param
    return name, run.run(name, 3, 0.0, False, "tiny"), run.run(name, 3, 0.0, True, "tiny")


def test_spec_lists_the_metrics_the_harness_emits():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == PER_LAYER
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


def test_every_metric_is_emitted_with_its_unit(results):
    _, plain, traced = results
    for result, spec in ((plain, SPEC["end_to_end"]), (traced, SPEC["per_layer"])):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in spec
        }
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert all(plain["metrics"][m]["value"] > 0 for m in ("setup_s", "wall_s", "op_p50_ms"))


def test_only_the_known_defect_fails(results):
    name, plain, traced = results
    for result in (plain, traced):
        assert result["correct"]
        if name == "verify-cli":
            # the tiny size scans the two smallest known missed terms, each
            # once per pass; they are counted, not skipped
            passes = result["attempted"] // len(_workload(name).ops)
            assert result["failed"] == 2 * passes
        else:
            assert result["failed"] == 0


def test_exact_counts_repeat_for_a_seed():
    exact = (
        "gpexpr.points", "constructions.confirmations", "nilorbit.exact_points", "ipsearch.nodes"
    )
    for name in ("formal-scan", "exact-arith"):
        first = run.run(name, 5, 0.0, True, "tiny")["metrics"]
        again = run.run(name, 5, 0.0, True, "tiny")["metrics"]
        assert [first[k]["value"] for k in exact] == [again[k]["value"] for k in exact]


def test_a_wrong_oracle_is_counted_as_a_failure(monkeypatch):
    right = ref.best_approx_records
    monkeypatch.setattr(ref, "best_approx_records", lambda *a: right(*a)[:-1])
    result = run.run("exact-arith", 3, 0.0, False, "tiny")
    passes = result["attempted"] // len(_workload("exact-arith").ops)
    assert result["failed"] == 3 * passes  # the three surds
    assert not result["correct"]


def test_a_wrong_known_defect_list_is_not_correct(monkeypatch):
    import workloads

    monkeypatch.setattr(workloads, "KNOWN_MISSED_TRIBONACCI", frozenset({334745777}))
    result = run.run("verify-cli", 3, 0.0, False, "tiny")
    assert result["failed"] > 0 and not result["correct"]


def test_traced_run_restores_every_wrapped_function():
    from layers import make_tracer

    tracer = make_tracer()
    bindings = _all_bindings()
    run.run("formal-scan", 3, 0.0, True, "tiny")
    with tracer:
        assert leftover_wrappers()
        assert _all_bindings() != bindings
    assert not leftover_wrappers()
    after = _all_bindings()
    assert all(after[k] is bindings[k] for k in bindings)


def test_untraced_pass_refuses_installed_probes():
    from layers import make_tracer

    wl = _workload("exact-arith")
    with make_tracer():
        with pytest.raises(RuntimeError):
            run.run_pass(wl)
    run.run_pass(wl)


def test_reference_oracles_on_known_values():
    assert ref.recurrence_values(*ref.TRIBONACCI, 50) == [1, 2, 4, 7, 13, 24, 44]
    assert ref.recurrence_values(*ref.CUBIC_2_1, 100) == [1, 2, 5, 13, 33, 84]
    assert ref.odd_index_denominators(4, 1000) == [1, 4, 15, 56, 209, 780]
    assert ref.nearest_power_integers(3, 1, 200) == [1, 3, 7, 18, 47, 123]
    assert ref.nearest_power_integers(3, -1, 200) == [1, 3, 11, 36, 119]
    golden = [n for n in range(1, 300) if ref.golden_frac_below_half_over_n(n)]
    assert golden == [2, 5, 13, 34, 89, 233]
    assert ref.first_ip_witness({1, 2, 3, 4, 5, 6, 7}, 3, 10) == ((1, 2, 3), 0)
    assert ref.first_ip_witness({5, 6, 7, 8}, 2, 10, (0, 4)) == ((1, 2), 4)
    assert ref.first_ip_witness({1, 2, 3, 5, 8}, 4, 100) == (None, None)


def test_best_approx_records_match_brute_force():
    from math import isqrt

    def dist(q, d, p_off, den):
        # ||q (p_off + sqrt d)/den|| as an exact comparison key
        x = Fraction(q * p_off, den) + Fraction(isqrt(q * q * d * 10**40), den * 10**20)
        return min(x - int(x), int(x) + 1 - x)

    for P, D, Q in ((0, 2, 1), (1, 5, 2), (2, 3, 1)):
        best, records = None, []
        for q in range(1, 400):
            v = dist(q, D, P, Q)
            if best is None or v < best:
                best = v
                records.append(q)
        assert [q for q, _ in ref.best_approx_records(P, D, Q, 399)] == records


def test_closed_form_defect_is_recognised_and_nothing_else():
    from gplab.constructions import cubic_pisot_set
    from workloads import closed_form_failure

    cons = cubic_pisot_set(1, 1)
    norm = ref.CubicNorm(1, 1)
    for q, known in ((660850589515334, True), (123456789, None)):
        n0, h = cons.n0_sq(q), cons.h_sq(q)
        got = (n0, h, h.compare(n0))
        want = (norm.n0_sq(q), norm.h_sq(q))
        failure = closed_form_failure(q, got, want, norm.beta)
        assert (failure and failure.known) == known
        # a wrong h is never the known defect
        bad = closed_form_failure(q, (n0, h * 2, got[2]), want, norm.beta)
        assert bad is not None and not bad.known


def test_heisenberg_oracle_small_cases():
    count, ambiguous = ref.heisenberg_count(20, Fraction(1, 3))
    assert not ambiguous
    assert 0 < count < 20


def _workload(name):
    wl, _ = run.setup_workload(name, 3, "tiny")
    wl.close()
    return wl


def _all_bindings():
    out = {}
    for modname, module in list(sys.modules.items()):
        if module is None or not modname.startswith("gplab"):
            continue
        for key, value in vars(module).items():
            out[(modname, key)] = value
            if isinstance(value, type) and value.__module__ == modname:
                for attr, obj in vars(value).items():
                    out[(modname, key, attr)] = obj
    return out
