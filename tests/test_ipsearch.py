"""Tests for finite-sums searches and density estimation."""

import itertools
import random
import time
from fractions import Fraction

import pytest

from gplab.constructions import Certificate, fibonacci_like_set
from gplab.errors import PrecisionExhausted, PreconditionError
from gplab.gpexpr import RationalConst
from gplab.realnum import DEFAULT_MAX_BITS
from gplab.ipsearch import (
    ap_witness_in_small_dist_set,
    density_estimate,
    find_ipr_in_set,
    finite_sums,
    translated_ip_probe,
)
from oracles import first_finite_sums


def _set_cert(pred, desc="test set"):
    # no indicator: ``confirm`` answers from the predicate, and ``members``
    # confirms every point, as for any certificate without a generator
    cert = Certificate(indicator=None, target_description=desc)
    cert.confirm = lambda n, max_bits=DEFAULT_MAX_BITS: pred(n)
    return cert


def test_finite_sums_examples():
    assert finite_sums([1, 2, 4]).distinct == (1, 2, 3, 4, 5, 6, 7)
    assert finite_sums([5, 8]).sums == (5, 8, 13)
    fam = finite_sums([1, 1])
    assert fam.sums == (1, 1, 2) and fam.distinct == (1, 2)
    with pytest.raises(PreconditionError):
        finite_sums([0, 3])


def test_finite_sums_cardinality_on_powers_of_two():
    rng = random.Random(5150)
    for _ in range(20):
        r = rng.randrange(1, 9)
        gens = rng.sample([2**j for j in range(12)], r)
        fam = finite_sums(gens)
        assert len(fam.sums) == 2**r - 1
        assert len(fam.distinct) == 2**r - 1  # distinct powers: all sums distinct


def test_ipr_witness_in_fibonacci():
    fib = fibonacci_like_set(1)
    rep = find_ipr_in_set(fib, 2, 100)
    assert rep.witness is not None
    sums = finite_sums(rep.witness).sums
    assert all(fib.member(s) for s in sums)
    # the documented instance FS(5, 8) = {5, 8, 13} also lies inside
    assert all(fib.member(s) for s in finite_sums([5, 8]).sums)


def test_ipr_full_set_trivial():
    full = _set_cert(lambda n: n >= 1)
    rep = find_ipr_in_set(full, 3, 7)
    assert rep.witness is not None
    assert finite_sums(rep.witness).sums[-1] <= 7
    # the canonical binary-representation witness is admissible too
    assert finite_sums([1, 2, 4]).distinct == tuple(range(1, 8))


def test_ipr_exhaustive_negative_matches_bruteforce():
    # cross-check the pruned search against naive enumeration on a small case
    target = _set_cert(lambda n: n in {1, 2, 3, 5, 8, 13, 21})
    bound = 21
    rep = find_ipr_in_set(target, 3, bound)
    naive = None
    for gens in itertools.combinations(range(1, bound + 1), 3):
        fam = finite_sums(gens)
        if fam.sums[-1] <= bound and all(s in {1, 2, 3, 5, 8, 13, 21} for s in fam.sums):
            naive = gens
            break
    assert (rep.witness is None) == (naive is None)
    if naive is not None:
        assert all(s in {1, 2, 3, 5, 8, 13, 21} for s in finite_sums(rep.witness).sums)


def test_ipr_repeats_mode():
    fib = fibonacci_like_set(1)
    rep = find_ipr_in_set(fib, 3, 100, distinct=False)
    assert rep.witness == (1, 1, 1)
    rep_d = find_ipr_in_set(fib, 4, 1000)
    assert rep_d.exhaustive and rep_d.witness is None


def test_translated_probe_mod5():
    cert = _set_cert(lambda n: n % 5 == 3)
    rep = translated_ip_probe(cert, 2, 60, range(5))
    assert rep.witness is not None and rep.witness_shift == 3
    assert all(g % 5 == 0 for g in rep.witness)


def test_translated_probe_empty_set():
    empty = _set_cert(lambda n: False)
    rep = translated_ip_probe(empty, 2, 30, range(3))
    assert rep.exhaustive and rep.witness is None


def test_search_matches_plain_enumeration():
    # the member-indexed search against itertools on seeded random sets
    rng = random.Random(2024)
    for _ in range(150):
        density = rng.choice((0.15, 0.4, 0.7, 0.95))
        members = {n for n in range(1, 81) if rng.random() < density}
        cert = _set_cert(members.__contains__)
        r, bound, distinct = rng.randint(1, 4), rng.randint(1, 70), rng.random() < 0.5
        if rng.random() < 0.3:
            rep = find_ipr_in_set(cert, r, bound, distinct=distinct)
            gens, _ = first_finite_sums(members, r, bound, (0,), distinct)
            shift = None
        else:
            shifts = [rng.randint(-8, 8) for _ in range(rng.randint(1, 3))]
            rep = translated_ip_probe(cert, r, bound, shifts, distinct=distinct)
            gens, shift = first_finite_sums(members, r, bound, shifts, distinct)
        case = (sorted(members), r, bound, rep.shifts, distinct)
        assert (rep.witness, rep.witness_shift, rep.exhaustive) == (gens, shift, gens is None), case


@pytest.mark.parametrize("r,bound,shift", [(2, 58, -3), (1, 58, -3), (2, 57, -2)])
def test_negative_shift_matches_bruteforce(r, bound, shift):
    # shifted sums must be searched among n >= 1, not wrapped round the member table
    fib = fibonacci_like_set(1)
    rep = translated_ip_probe(fib, r, bound, [shift])
    gens, want_shift = first_finite_sums(set(fib.members(1, bound + shift)), r, bound, (shift,))
    assert gens is not None
    assert (rep.witness, rep.witness_shift, rep.exhaustive) == (gens, want_shift, False)


def test_all_negative_shifts_below_one_are_exhaustive():
    rep = translated_ip_probe(fibonacci_like_set(1), 2, 5, [-7, -9])
    assert rep.exhaustive and rep.witness is None and rep.witness_shift is None


def test_work_counts_and_time_of_the_finite_sums_probes():
    # nodes_explored counts every integer generator position, as an
    # integer-by-integer walk does; the member-indexed search takes a few ms
    fib = fibonacci_like_set(1)
    t0 = time.perf_counter()
    rep = find_ipr_in_set(fib, 4, 10**4)
    rep_t = translated_ip_probe(fib, 3, 10**4, range(11))
    elapsed = time.perf_counter() - t0
    assert rep.nodes_explored == 310409 and rep_t.nodes_explored == 1633255
    assert elapsed < 0.5, f"finite-sums probes took {elapsed:.2f}s"


def test_report_serialization_format():
    fib = fibonacci_like_set(1)
    rep = find_ipr_in_set(fib, 2, 50)
    text = rep.to_text()
    assert "mode: ipr" in text and "witness:" in text and "nodes_explored:" in text


def test_ap_witness_examples():
    assert ap_witness_in_small_dist_set(1).witness[0] == 1
    rep5 = ap_witness_in_small_dist_set(5)
    assert rep5.witness == (169, 338, 507, 676, 845)
    rep12 = ap_witness_in_small_dist_set(12)
    m = rep12.witness[0]
    assert m >= 12**3 and len(rep12.witness) == 12


def test_density_examples():
    full = _set_cert(lambda n: True)
    assert density_estimate(full, 100).density == 1.0
    empty = Certificate(indicator=RationalConst(Fraction(0)), target_description="empty")
    assert density_estimate(empty, 50).count == 0
    fib = fibonacci_like_set(1)
    est = density_estimate(fib, 10**6)
    # the 29 Fibonacci values in [1, 1e6]; n = 0 is not counted
    assert est.count == 29
    assert not est.partial


def test_density_reports_an_undecided_point():
    # one point the indicator cannot decide at the budget: the estimate
    # falls back to deciding point by point, counts the others and lists it
    def pred(n):
        if n == 37:
            raise PrecisionExhausted("undecided at the budget")
        return n % 3 == 0

    est = density_estimate(_set_cert(pred), 100)
    assert est.partial and est.undecided == (37,)
    assert est.count == 33 and est.density == 0.33


def test_density_monotone():
    fib = fibonacci_like_set(1)
    counts = [density_estimate(fib, N).count for N in (10, 100, 1000, 5000)]
    assert counts == sorted(counts)
