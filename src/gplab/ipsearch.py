"""Finite-sums combinatorics: IP_r searches inside certificate sets.

These are desk-scale, one-sided probes: a witness is a tuple of generators
whose full set of subset sums (plus an optional shift) lies inside the
target set, re-verified by the indicator at doubled precision; a negative
report means the search space below the bound was exhausted, nothing more.
Each set of points is decided in one ``Certificate.members_in`` scan.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .cf import cf_expand, convergent_walk
from .constructions.certificate import Certificate
from .constructions.smallfp import sqrt2_small_dist_certificate
from .errors import NotFound, PrecisionExhausted, PreconditionError
from .realnum import DEFAULT_MAX_BITS, NumberField


@dataclass(frozen=True)
class FiniteSumsFamily:
    generators: tuple[int, ...]
    sums: tuple[int, ...]  # all 2^r - 1 nonempty subset sums, sorted, multiset
    distinct: tuple[int, ...]


def finite_sums(generators) -> FiniteSumsFamily:
    gens = tuple(int(g) for g in generators)
    if not gens or any(g < 1 for g in gens):
        raise PreconditionError("generators must be positive integers")
    sums = []
    r = len(gens)
    for mask in range(1, 1 << r):
        sums.append(sum(gens[i] for i in range(r) if mask >> i & 1))
    sums.sort()
    return FiniteSumsFamily(gens, tuple(sums), tuple(sorted(set(sums))))


@dataclass
class SearchReport:
    mode: str  # "ipr" | "translated_ipr" | "ap_in_set"
    r: int
    bound: int
    shifts: tuple[int, ...] = ()
    witness: tuple[int, ...] | None = None
    witness_shift: int | None = None
    exhaustive: bool = False
    nodes_explored: int = 0
    runtime_ms: int = 0

    def to_text(self) -> str:
        wit = " ".join(map(str, self.witness)) if self.witness else "none"
        rows = [
            f"mode: {self.mode}",
            f"r: {self.r}",
            f"bound: {self.bound}",
            "shifts: " + (" ".join(map(str, self.shifts)) if self.shifts else "-"),
            f"witness: {wit}",
        ]
        if self.witness_shift is not None:
            rows.append(f"shift: {self.witness_shift}")
        rows += [
            f"exhaustive: {str(self.exhaustive).lower()}",
            f"nodes_explored: {self.nodes_explored}",
        ]
        return "\n".join(rows) + "\n"


def _all_in(cert: Certificate, points, max_bits: int) -> bool:
    """Whether each of the increasing ``points`` is in the set: one scan,
    which stops at the first member past a point that is not."""
    found = cert.members_in(points, max_bits)
    return all(next(found, None) == n for n in points)


def _reverify(cert: Certificate, values, max_bits: int) -> bool:
    """Independent confirmation of witness sums: the indicator at doubled
    precision, in one scan of the distinct sums."""
    return _all_in(cert, sorted(set(values)), 2 * max_bits)


def _search(
    cert: Certificate,
    r: int,
    bound: int,
    shifts: tuple[int, ...],
    mode: str,
    max_bits: int,
    distinct: bool,
) -> SearchReport:
    """First FS(n_1..n_r) + shift inside the set, by depth-first search.

    Generators come from the member list on [1, top], since {g} is itself a
    sum; ``nodes_explored`` still counts every integer generator position
    considered, so it does not depend on how candidates are enumerated.
    Shifted sums are searched among n >= 1, and shifts may be negative.
    """
    if r < 1 or bound < 1:
        raise PreconditionError("need r >= 1 and bound >= 1")
    t0 = time.perf_counter()
    top = bound + (max(shifts) if shifts else 0)
    members = cert.members(1, top, max_bits)
    member = set(members)
    nodes = 0

    def dfs(start: int, chosen: list[int], sums: list[int], shift: int):
        nonlocal nodes
        if len(chosen) == r:
            return tuple(chosen)
        total = sums[-1] if sums else 0
        last = bound - total
        pos = start  # first generator position not yet counted in nodes
        for m in members[bisect_left(members, start + shift) : bisect_right(members, last + shift)]:
            g = m - shift
            nodes += g - pos + 1
            pos = g + 1
            if all(s + g + shift in member for s in sums):
                new_sums = sorted(sums + [g] + [s + g for s in sums])
                found = dfs(g + 1 if distinct else g, chosen + [g], new_sums, shift)
                if found:
                    return found
        nodes += max(0, last - pos + 1)
        return None

    witness = None
    witness_shift = None
    for shift in shifts or (0,):
        witness = dfs(1, [], [], shift)
        if witness:
            witness_shift = shift
            break
    report = SearchReport(
        mode=mode,
        r=r,
        bound=bound,
        shifts=shifts,
        witness=witness,
        witness_shift=witness_shift if shifts else None,
        exhaustive=witness is None,
        nodes_explored=nodes,
        runtime_ms=int((time.perf_counter() - t0) * 1000),
    )
    if witness:
        fam = finite_sums(witness)
        shift = witness_shift or 0
        if not _reverify(cert, [s + shift for s in fam.sums], max_bits):
            raise AssertionError("witness failed independent re-verification")
    return report


def find_ipr_in_set(
    cert: Certificate,
    r: int,
    bound: int,
    max_bits: int = DEFAULT_MAX_BITS,
    distinct: bool = True,
) -> SearchReport:
    """Exhaustive search for FS(n_1..n_r) inside the set with sums <= bound.

    Generators are enumerated in increasing order and a branch dies as soon
    as one partial sum leaves the set.  By default generators are distinct
    (the structurally interesting reading); pass ``distinct=False`` to allow
    repeats, which makes additive chains like FS(1,1,1) eligible.
    """
    return _search(cert, r, bound, (), "ipr", max_bits, distinct)


def translated_ip_probe(
    cert: Certificate,
    r: int,
    bound: int,
    shifts,
    max_bits: int = DEFAULT_MAX_BITS,
    distinct: bool = True,
) -> SearchReport:
    """Search for FS(n_1..n_r) + shift inside the set, over the given shifts.

    Shifts are tried in order and may be negative; shifted sums are searched
    among n >= 1.  Generators come from the member list, and
    ``nodes_explored`` counts every integer generator position considered.
    """
    return _search(
        cert, r, bound, tuple(int(s) for s in shifts), "translated_ipr", max_bits, distinct
    )


def ap_witness_in_small_dist_set(r: int, max_bits: int = DEFAULT_MAX_BITS) -> SearchReport:
    """Witness {k*m : 1 <= k <= r} inside {n : ||n sqrt2|| < 1/sqrt(n)}.

    m is the first convergent denominator of sqrt2 with m >= r^3 and
    ||m sqrt2|| < 1/m whose progression fully verifies.
    """
    if r < 1:
        raise PreconditionError("r must be at least 1")
    t0 = time.perf_counter()
    cert = sqrt2_small_dist_certificate()
    sq2 = NumberField((-2, 0, 1), 1, 2, "s").generator()
    nodes = 0
    for _, m, _ in convergent_walk(cf_expand(sq2)):
        if m >= 10**18:
            break
        nodes += 1
        if m >= r**3:
            d = (sq2 * m).dist_to_int()
            progression = range(m, r * m + 1, m)
            if (d * m - 1).sign() < 0 and _all_in(cert, progression, max_bits):
                witness = tuple(progression)
                if not _reverify(cert, witness, max_bits):
                    raise AssertionError("progression failed re-verification")
                return SearchReport(
                    mode="ap_in_set",
                    r=r,
                    bound=m * r,
                    witness=witness,
                    exhaustive=False,
                    nodes_explored=nodes,
                    runtime_ms=int((time.perf_counter() - t0) * 1000),
                )
    raise NotFound(f"no verified progression witness for r={r}")


@dataclass
class DensityEstimate:
    N: int
    count: int
    density: float
    partial: bool = False
    undecided: tuple[int, ...] = ()


def density_estimate(cert: Certificate, N: int, max_bits: int = DEFAULT_MAX_BITS) -> DensityEstimate:
    """|E ∩ [1, N]| and its ratio to N; undecided points are reported.

    Only positive n count: the indicators of value sets also hold at some
    n <= 0 (the cubic ones at 0), which are not in the target set.  One
    scan decides each piece of the proposals, and resumes past any
    undecided point.
    """
    if N < 1:
        raise PreconditionError("N must be at least 1")
    count, undecided = 0, []
    for points in cert.points(1, N):
        while points:
            try:
                for _ in cert.members_in(points, max_bits):
                    count += 1
                break
            except PrecisionExhausted as exc:
                undecided.append(exc.n)
                points = points[bisect_right(points, exc.n) :]
    return DensityEstimate(
        N=N,
        count=count,
        density=count / N,
        partial=bool(undecided),
        undecided=tuple(undecided),
    )
