"""The three benchmark workloads.

A workload turns a seed into a fixed list of operations (one *pass*).  Each
operation is a call into one public gplab entry point, the count of
integers it decides, and a check of its result against the reference
oracles in ``reference.py``.  The seed picks window offsets and samples;
sizes are fixed so that every seed costs about the same.  gplab is
imported inside ``setup``, so its import is part of the measured set-up.

Calls go through module attributes (``gpexpr.members``, ``cli.main``, ...)
so that the traced run's probes see them.
"""

from __future__ import annotations

import hashlib
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import reference as ref

# verify-cli artifacts go here, inside the checkout; removed by close()
SCRATCH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), ".perfbench_tmp"
)

# Sizes.  "full" is the benchmark; "tiny" is for the benchmark's own tests.
SIZES = {
    "full": {
        "scan_low": 200, "scan_window": 16, "scan_centres": (3, 16, 12),
        "cubic_batches": range(1, 15), "orbit_batches": range(1, 16), "exact_batch": 4,
        "ba1d_q": 600, "ba2d_q": 120, "growth_n": 600,
        "verify_to": 10**7, "trib_range": (10**6, 10**17), "trib_window": 41,
        "quad_range": (10**5, 13 * 10**6), "quad_window": 41, "density_n": 10**6,
        "translated": True,
    },
    "tiny": {
        "scan_low": 12, "scan_window": 4, "scan_centres": (3, 4, 2),
        "cubic_batches": range(1, 3), "orbit_batches": range(1, 3), "exact_batch": 1,
        "ba1d_q": 30, "ba2d_q": 10, "growth_n": 30,
        "verify_to": 10**4, "trib_range": (3 * 10**8, 7 * 10**8), "trib_window": 3,
        "quad_range": (10**4, 10**5), "quad_window": 3, "density_n": 10**3,
        "translated": False,
    },
}

# Known defects, found when this benchmark was written.  Failures with
# exactly these signatures are counted but leave `correct` true; any other
# failure makes it false.
#
# 1. Tribonacci terms that the cubic fast scan misses: its float value of
#    (h^2 g)^2 / beta^k is off by up to 2.2 % against a 1e-4 margin, while
#    the exact predicate and the formal indicator both accept them.
# 2. CubicConstruction.n0_sq returns a lattice point farther than the
#    nearest for some q above about 5e14 (q = 660850589515334 is one): its
#    float near-tie filter drops the true minimiser once q*theta carries
#    float error.  See closed_form_failure.
KNOWN_MISSED_TRIBONACCI = frozenset(
    {334745777, 615693474, 2082876103, 3831006429, 12960201916, 23837527729, 80641778674}
)

README_FIBONACCI = """let phi = root(x^2-x-1, 1, 2);
  floor(1 - frac(theta*floor(2*n*(n*phi - floor(n*phi)))))"""


@dataclass
class Failure:
    detail: str
    known: bool = False


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], Failure | None]
    points: int
    digest: Callable[[], str] | None = None  # artifact digest, verify-cli only


@dataclass
class Workload:
    seed: int
    size: str = "full"
    ops: list[Op] = field(default_factory=list)

    def __post_init__(self):
        self.rng = random.Random(f"{self.name}:{self.seed}")
        self.cfg = SIZES[self.size]

    def setup(self) -> None:
        """Import gplab, build inputs and oracles, fill ops, warm up."""
        raise NotImplementedError

    def close(self) -> None:
        pass


def _mismatch(got, want) -> Failure | None:
    if list(got) == list(want):
        return None
    missing = sorted(set(want) - set(got))
    extra = sorted(set(got) - set(want))
    return Failure(f"missing {missing} extra {extra}")


def _log_uniform(rng: random.Random, decade: int) -> int:
    return int(10 ** (decade + rng.random()))


def _near(rng: random.Random, center: int, width: int) -> tuple[int, int]:
    """A width-long window holding ``center`` at a seeded offset."""
    lo = max(1, center - rng.randrange(width))
    return lo, lo + width - 1


# ---------------------------------------------------------------------------
# formal-scan
# ---------------------------------------------------------------------------

class FormalScan(Workload):
    """gpexpr.members on builder indicators and a parsed expression.

    The dyadic walker does the work; large n climbs the precision ladder.
    """

    name = "formal-scan"

    def setup(self) -> None:
        from gplab import constructions, gpexpr

        cfg = self.cfg
        lo_e, hi_e, per_target = cfg["scan_centres"]
        big = 10**hi_e + 10**6
        fib = set(ref.recurrence_values(*ref.FIBONACCI, big))
        # (name, indicator, oracle members, first n from which the
        # certificate claims agreement with its target)
        targets = [
            ("fibonacci-a1", constructions.fibonacci_like_set(1).indicator, fib, 1),
            (
                "quadratic-filter-a4",
                constructions.norm_plus_filtered_set(4).indicator,
                set(ref.odd_index_denominators(4, big)),
                2,
            ),
            (
                "quadratic-a3-norm+1",
                constructions.quadratic_pisot_unit_set(3, 1).indicator,
                set(ref.nearest_power_integers(3, 1, big)),
                4,
            ),
            (
                "cubic-1-1",
                constructions.cubic_pisot_set(1, 1).certificate.indicator,
                set(ref.recurrence_values(*ref.TRIBONACCI, big)),
                1,
            ),
            (
                "readme-fibonacci",
                gpexpr.parse(README_FIBONACCI),
                {n for n in fib if n >= 1 and ref.golden_frac_below_half_over_n(n)},
                1,
            ),
        ]
        warm = []
        for name, ind, members, start in targets:
            # a low window from where the certificate claims agreement, then
            # windows at seeded offsets around members at fixed, log-spaced
            # magnitudes in [10^lo_e, 10^hi_e): the magnitude sets how far up
            # the precision ladder a window climbs, so it is not left to the seed
            ordered = sorted(members)
            centres = sorted({
                next(m for m in ordered if m >= 10 ** (lo_e + (hi_e - lo_e) * j / per_target))
                for j in range(per_target)
            })
            windows = [(start, start + cfg["scan_low"] - 1)]
            windows += [_near(self.rng, m, cfg["scan_window"]) for m in centres]
            warm += [(ind, start), (ind, centres[-1])]
            for lo, hi in windows:
                if name == "readme-fibonacci":
                    # the predicate itself, not just the centres, is the oracle
                    want = [n for n in range(lo, hi + 1) if ref.golden_frac_below_half_over_n(n)]
                else:
                    want = sorted(m for m in members if lo <= m <= hi)
                self.ops.append(
                    Op(
                        f"{name}[{lo},{hi}]",
                        lambda ind=ind, lo=lo, hi=hi: gpexpr.members(ind, lo, hi),
                        lambda got, want=want: _mismatch(got, want),
                        hi - lo + 1,
                    )
                )
        # warm-up: the largest member climbs the precision ladder furthest and
        # fills the constants' enclosures (for the cubic about a second of
        # root bisection) before timing
        for ind, n in warm:
            gpexpr.members(ind, n, n)


# ---------------------------------------------------------------------------
# exact-arith
# ---------------------------------------------------------------------------

class ExactArith(Workload):
    """Exact field work: cubic closed forms, best approximations, Heisenberg.

    FieldElement arithmetic on Fraction coordinates, root bisection and the
    Heisenberg exact walker do the work; the dyadic walker is not called.
    """

    name = "exact-arith"

    def setup(self) -> None:
        import mpmath
        from gplab import cf, constructions, nilorbit
        from gplab.realnum import NumberField

        cfg = self.cfg
        rng = self.rng
        cons = constructions.cubic_pisot_set(1, 1)
        mp_norm = ref.CubicNorm(1, 1)
        beta_mp = mp_norm.beta

        # cubic closed forms: one batch of q per decade.  The batch counts put
        # op_p50_ms inside the cubic batches and op_p90_ms on the 4th
        # costliest operation (best_approx_1d on sqrt2), not on a boundary.
        for e in cfg["cubic_batches"]:
            qs = [_log_uniform(rng, e) for _ in range(cfg["exact_batch"])]
            want = [(mp_norm.n0_sq(q), mp_norm.h_sq(q)) for q in qs]

            def call(qs=qs):
                out = []
                for q in qs:
                    n0, h = cons.n0_sq(q), cons.h_sq(q)
                    out.append((n0, h, h.compare(n0)))
                return out

            def check(got, qs=qs, want=want):
                fails = [
                    f
                    for q, g, w in zip(qs, got, want)
                    if (f := closed_form_failure(q, g, w, beta_mp)) is not None
                ]
                if not fails:
                    return None
                return Failure(" ".join(f.detail for f in fails), all(f.known for f in fails))

            self.ops.append(Op(f"cubic-closed-form[1e{e}]", call, check, len(qs)))

        # Heisenberg orbit points: one batch of n per decade
        spec3 = nilorbit.default_orbit_spec(Fraction(1, 3), 10**15)
        with mpmath.workdps(ref.MP_DPS):
            root2, root3 = mpmath.sqrt(2), mpmath.sqrt(3)
        for e in cfg["orbit_batches"]:
            ns = [_log_uniform(rng, e) for _ in range(cfg["exact_batch"])]
            want = [ref.heisenberg_orbit(n) for n in ns]

            def check(got, ns=ns, want=want):
                bad = []
                with mpmath.workdps(ref.MP_DPS):
                    for n, p, (coords, ambiguous) in zip(ns, got, want):
                        vals = (
                            ref.field_value(p.x, root2),
                            ref.field_value(p.y, root3),
                            ref.field_value(p.z, root2),
                        )
                        if ambiguous:
                            bad.append(f"n={n} ambiguous")
                        elif not all(ref.close(v, w) for v, w in zip(vals, coords)):
                            bad.append(f"n={n}")
                return Failure(" ".join(bad)) if bad else None

            self.ops.append(
                Op(
                    f"orbit-point[1e{e}]",
                    lambda ns=ns: [nilorbit.orbit_point(spec3, n) for n in ns],
                    check,
                    len(ns),
                )
            )

        # one-dimensional best approximations; Q within 2 % of nominal
        surds = [
            ("sqrt2", NumberField((-2, 0, 1), 1, 2, "s").generator(), (0, 2, 1)),
            ("phi", NumberField((-1, -1, 1), 1, 2, "phi").generator(), (1, 5, 2)),
            ("2+sqrt3", NumberField((-3, 0, 1), 1, 2, "s").generator() + 2, (2, 3, 1)),
        ]
        for name, x, pdq in surds:
            Q = _jitter(rng, cfg["ba1d_q"])
            want = ref.best_approx_records(*pdq, Q)
            self.ops.append(
                Op(
                    f"best-approx-1d[{name},Q={Q}]",
                    lambda x=x, Q=Q: cf.best_approx_1d(x, Q),
                    lambda got, want=want: _mismatch([(b.q, b.p[0]) for b in got], want),
                    Q,
                )
            )

        # planar best approximations of the cubic (1,1): Tribonacci records
        Q2 = _jitter(rng, cfg["ba2d_q"])
        want2 = ref.recurrence_values(*ref.TRIBONACCI, Q2)
        self.ops.append(
            Op(
                f"best-approx-2d[cubic-1-1,Q={Q2}]",
                lambda: cf.best_approx_2d(cons.theta, cons.norm, Q2),
                lambda got: _mismatch([b.q for b in got], want2),
                Q2,
            )
        )

        # Heisenberg growth counts in the non-vacuous regime
        for c in (Fraction(9, 20), Fraction(1, 3)):
            N = _jitter(rng, cfg["growth_n"])
            spec = nilorbit.default_orbit_spec(c, N)
            count, ambiguous = ref.heisenberg_count(N, c)

            def check(got, count=count, ambiguous=ambiguous):
                row = got[0]
                if ambiguous:
                    return Failure(f"oracle ambiguous at n in {ambiguous}")
                if row.skipped:
                    return Failure(f"{row.skipped} points raised PrecisionExhausted")
                if row.count != count:
                    return Failure(f"S(N)={row.count}, oracle {count}")
                return None

            self.ops.append(
                Op(
                    f"growth-count[c={c},N={N}]",
                    lambda spec=spec, N=N: nilorbit.growth_count(spec, (N,)),
                    check,
                    N - 1,
                )
            )

        # warm-up: small calls through every entry point, and the largest
        # cubic q so its root enclosures are filled
        qmax = 10 ** (max(cfg["cubic_batches"]) + 1)
        cons.n0_sq(qmax), cons.h_sq(qmax)
        for _, x, _ in surds:
            cf.best_approx_1d(x, 5)
        cf.best_approx_2d(cons.theta, cons.norm, 5)
        nilorbit.growth_count(nilorbit.default_orbit_spec(Fraction(1, 3), 20), (20,))
        nilorbit.orbit_point(spec3, 10 ** (max(cfg["orbit_batches"]) + 1))


def closed_form_failure(q, got, want, beta_mp) -> Failure | None:
    """Check n0_sq(q), h_sq(q) and h.compare(n0) against the mpmath oracle."""
    import mpmath

    n0, h, cmp = got
    n0_mp, h_mp = want
    with mpmath.workdps(ref.MP_DPS):
        expect = ref.sign_or_ambiguous(h_mp - n0_mp)
        n0_v, h_v = ref.field_value(n0, beta_mp), ref.field_value(h, beta_mp)
        n0_ok, h_ok = ref.close(n0_v, n0_mp), ref.close(h_v, h_mp)
        if expect is None:
            return Failure(f"q={q} ambiguous")
        if n0_ok and h_ok and cmp == expect:
            return None
        farther = not n0_ok and h_ok and n0_v > n0_mp  # known defect 2
        return Failure(f"q={q}" + (" n0_sq not minimal" if farther else ""), farther)


def _jitter(rng: random.Random, nominal: int) -> int:
    """A seeded size within 2 % of nominal, so the cost barely depends on the seed."""
    spread = max(1, nominal // 50)
    return nominal + rng.randrange(-spread, spread + 1)


# ---------------------------------------------------------------------------
# verify-cli
# ---------------------------------------------------------------------------

class VerifyCli(Workload):
    """In-process ``gp`` commands with --jobs 1, artifacts written to files.

    Numpy prefilters with exact confirmation, the IP_r search and
    certificate print/parse do the work; each command builds its
    construction, as users pay that on every call.
    """

    name = "verify-cli"

    def setup(self) -> None:
        from gplab import cli, constructions, gpexpr

        cfg = self.cfg
        rng = self.rng
        self.cli = cli
        self.tmp = os.path.join(SCRATCH, str(os.getpid()))
        os.makedirs(self.tmp, exist_ok=True)
        to = cfg["verify_to"]
        top = 10**17 + 10**6
        trib = ref.recurrence_values(*ref.TRIBONACCI, top)
        fib = ref.recurrence_values(*ref.FIBONACCI, 10**5)
        q3p = ref.nearest_power_integers(3, 1, top)

        # gp verify to `to`.  `from` is where each certificate claims
        # agreement with its target: below it the report lists exceptions
        # by design (quadratic-filter a=4: {1}; quadratic a=3: {1, 3}, and
        # {4} extra for norm -1).
        verifies = [
            ("fibonacci", ["--a", "1"], 1, ref.recurrence_values(*ref.FIBONACCI, to)),
            ("fibonacci", ["--a", "2"], 1, ref.recurrence_values(*ref.PELL, to)),
            ("quadratic-filter", ["--a", "4"], 2, ref.odd_index_denominators(4, to)),
            ("quadratic", ["--a", "3", "--norm", "1"], 4, ref.nearest_power_integers(3, 1, to)),
            ("quadratic", ["--a", "3", "--norm", "-1"], 5, ref.nearest_power_integers(3, -1, to)),
            ("cubic", ["--a", "1", "--b", "1"], 1, ref.recurrence_values(*ref.TRIBONACCI, to)),
            ("cubic", ["--a", "2", "--b", "1"], 1, ref.recurrence_values(*ref.CUBIC_2_1, to)),
        ]
        for cons, params, lo, values in verifies:
            self._verify(f"verify-{cons}{''.join(params)}", cons, params, lo, to, values)
        # windows around every Tribonacci term in [1e6, 1e17]
        w = cfg["trib_window"]
        for t in trib:
            if cfg["trib_range"][0] <= t <= cfg["trib_range"][1]:
                lo, hi = _near(rng, t, w)
                self._verify(
                    f"tribonacci-window@{t}", "cubic", ["--a", "1", "--b", "1"], lo, hi, trib
                )
        # windows around quadratic a=3 norm +1 terms up to 1.3e7: the transfer
        # scans its source set from 0, so cost and memory grow with hi
        w = cfg["quad_window"]
        for t in q3p:
            if cfg["quad_range"][0] <= t <= cfg["quad_range"][1]:
                lo, hi = _near(rng, t, w)
                self._verify(
                    f"quadratic-window@{t}", "quadratic", ["--a", "3", "--norm", "1"], lo, hi, q3p
                )

        n = cfg["density_n"]
        count = sum(1 for t in trib if 1 <= t < n)
        self._command(
            "density-cubic",
            ["density", "--construction", "cubic", "--a", "1", "--b", "1", "--N", str(n)],
            lambda text: None
            if text.splitlines()[1].split(",")[1::2] == [str(count), "false"]
            else Failure(f"density row {text.splitlines()[1]!r}, oracle count {count}"),
            n,
        )

        fib_set = set(fib)
        probes = [("ipr", 4, [])]
        if cfg["translated"]:
            probes.append(("translated", 3, list(range(11))))
        for mode, r, shifts in probes:
            args = ["ipsearch", "--mode", mode, "--r", str(r), "--construction", "fibonacci"]
            if shifts:
                args += ["--shifts", ",".join(map(str, shifts))]
            gens, shift = ref.first_ip_witness(fib_set, r, 10**4, shifts or (0,))
            self._command(
                f"ipsearch-{mode}-r{r}", args, _ipsearch_check(gens, shift, bool(shifts)),
                10**4 + max(shifts or [0]),
            )

        # certificate print, then re-parse and spot-check against the oracle
        members = [t for t in q3p if 10**3 <= t <= 10**7]
        sample = [m + d for m in rng.sample(members, 3) for d in (-1, 0, 1)]
        q3p_set = set(q3p)

        def cert_check(text):
            parsed = constructions.Certificate.from_file_text(text)
            got = [gpexpr.eval_indicator(parsed.indicator, n) for n in sample]
            want = [int(n in q3p_set) for n in sample]
            if got != want:
                return Failure(f"re-parsed indicator {got} at {sample}, oracle {want}")
            return None

        self._command(
            "cert-quadratic-a3-norm+1",
            ["cert", "--construction", "quadratic", "--a", "3", "--norm", "1"],
            cert_check,
            0,
        )
        # warm-up: one small command through the parser and writer
        self._run(["verify", "--construction", "fibonacci", "--to", "100"], "warmup")

    def _out(self, name: str) -> str:
        return os.path.join(self.tmp, name.replace("/", "_") + ".txt")

    def _run(self, argv, name) -> int:
        return self.cli.main(argv + ["--jobs", "1", "--out", self._out(name)])

    def _command(self, name, argv, check_text, points) -> None:
        path = self._out(name)

        def check(rc):
            if rc != 0:
                return Failure(f"exit code {rc}")
            with open(path) as fh:
                return check_text(fh.read())

        def digest():
            # removes the artifact, so no pass can read one a former pass left
            try:
                with open(path, "rb") as fh:
                    data = fh.read()
            except FileNotFoundError:
                return "missing"
            os.unlink(path)
            return hashlib.sha256(data).hexdigest()

        self.ops.append(Op(name, lambda: self._run(argv, name), check, points, digest))

    def _verify(self, name, cons, params, lo, hi, values) -> None:
        want = [v for v in values if lo <= v <= hi]
        argv = ["verify", "--construction", cons, *params, "--from", str(lo), "--to", str(hi)]

        def check_text(text):
            rows = dict(line.split(":", 1) for line in text.splitlines() if ":" in line)
            found = [int(x) for x in rows["members_found"].split()]
            oracle = [int(x) for x in rows["oracle_members"].split()]
            fail = _mismatch(found, want)
            if fail is not None:
                missing = set(want) - set(found)
                fail.known = not (set(found) - set(want)) and missing <= KNOWN_MISSED_TRIBONACCI
                return fail
            if oracle != want:
                return Failure(f"report oracle_members {oracle[:5]}... differ from reference")
            return None

        self._command(name, argv, check_text, hi - lo + 1)

    def close(self) -> None:
        import shutil

        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.tmp))
        except OSError:
            pass  # another run still uses it


def _ipsearch_check(gens, shift, translated: bool):
    def check(text):
        rows = dict(line.split(": ", 1) for line in text.splitlines() if ": " in line)
        words = rows["witness"].split()
        witness = None if words == ["none"] else tuple(int(x) for x in words)
        if witness != gens:
            return Failure(f"witness {witness}, oracle {gens}")
        if rows["exhaustive"] != str(gens is None).lower():
            return Failure(f"exhaustive {rows['exhaustive']} with witness {witness}")
        if translated and gens is not None and int(rows["shift"]) != shift:
            return Failure(f"shift {rows['shift']}, oracle {shift}")
        return None

    return check


WORKLOADS = {w.name: w for w in (FormalScan, ExactArith, VerifyCli)}
