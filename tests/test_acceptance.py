"""Acceptance criteria, one test per criterion.

Each test runs the criterion's check from ``gplab.suites.PAPER_CHECKS``
(the same code as ``gp suite paper-checks``), enforces its runtime budget
and prints a single summary line (run pytest with -s to see them inline).
"""

import time

from gplab.suites import PAPER_CHECKS

CHECKS = dict(PAPER_CHECKS)


def _run(check: str, title: str, budget: float) -> None:
    t0 = time.perf_counter()
    detail = CHECKS[check]()
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"{title}: {elapsed:.1f}s over the {budget:.0f}s budget"
    print(f"[PASS] {title} ({elapsed:.1f}s / budget {budget:.0f}s): {detail}")


def test_criterion_1_fibonacci_certificate_to_one_million():
    _run("fibonacci-certificate", "criterion 1: Fibonacci certificate on [2, 1e6]", 120)


def test_criterion_2_convergence_constant():
    _run("fibonacci-constant", "criterion 2: n*||n*phi|| -> 1/sqrt(5)", 1)


def test_criterion_3_quadratic_norm_plus_a4():
    _run("quadratic-norm-plus", "criterion 3: norm +1 filter (a=4) on [1, 1e6]", 120)


def test_half_over_n_verify_to_1e17():
    _run("half-over-n-verify-1e17", "half-over-n certificates = recurrence values to 1e17", 1)


def test_criterion_4_cubic_tribonacci():
    _run("cubic-tribonacci", "criterion 4: cubic a=b=1 on [1, 1e6]", 300)


def test_cubic_verify_to_1e17():
    _run("cubic-verify-1e17", "cubic certificates against their recurrences to 1e17", 2)


def test_criterion_5_very_sparse_compiler():
    _run("very-sparse-compiler", "criterion 5: very-sparse compiler (C=5, D=6)", 60)


def test_very_sparse_support():
    _run("very-sparse-support", "very-sparse support = {2, 128, 128^7} on [1, oo)", 1)


def test_criterion_6_heisenberg_growth():
    _run("heisenberg-growth", "criterion 6: Heisenberg growth (c=0.05)", 300)


def test_heisenberg_growth_non_vacuous():
    _run("heisenberg-growth-non-vacuous", "Heisenberg growth at c = 9/20 and 1/3", 60)


def test_heisenberg_growth_to_1e5():
    _run("heisenberg-growth-1e5", "Heisenberg growth to 1e5 at c = 1/3 and 9/20", 20)


def test_best_approx_2d_tribonacci_to_1e5():
    _run("best-approx-2d-tribonacci-1e5", "Rauzy-norm records = Tribonacci terms to 1e5", 20)


def test_best_approx_2d_cubic_to_1e30():
    _run("best-approx-2d-cubic-1e30", "Rauzy-norm records = recurrence terms to 1e30", 2)


def test_criterion_7_ip_r_witness():
    _run("ip-r-witness", "criterion 7: IP_r witness", 60)


def test_criterion_8_finite_sums_consistency_probe():
    _run("finite-sums-probe", "criterion 8: finite-sums probes", 120)


def test_finite_sums_probe_to_ten_million():
    _run("finite-sums-probe-1e7", "finite-sums probes to 1e7", 10)


def test_criterion_9_property_suites():
    _run("property-battery", "criterion 9: property battery", 60)
