"""The named constructions: each pairs a builder, its target set's oracle
and the start of its scan.

``params`` has the attributes a construction reads (the ``gp`` parser's
namespace): ``a``, ``b``, ``norm``, ``C``, ``D``, ``sequence`` (integers).
Builders compute no exceptional data; each returns its certificate, whose
``members`` decides its indicator's proposals in ``Certificate.members_in``
scans, the only scans that decide: a certificate built on another
substitutes that one's indicator into its own (a pull-back).
``gp cert`` computes a certificate's exceptional set with one
``verify_certificate`` call on [``scan_from``, ``SCAN_TO``] against the
oracle, and hands that scan's report to ``annotate`` where one is set
(cubic's extra-orbit flag); ``gp verify`` scans the range it is given.
A construction without ``scan_from`` (``verysparse``, whose oracle is the
supplied sequence itself) is printed unscanned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..errors import PreconditionError
from . import cubic, quadratic, verysparse
from .certificate import Certificate, VerificationReport
from .recurrence import recurrence_terms


#: the end of ``gp cert``'s scan
SCAN_TO = 4000


@dataclass(frozen=True)
class Construction:
    build: Callable[[object], Certificate]
    oracle: Callable[[object, int], list[int]]
    scan_from: int | None
    annotate: Callable[[Certificate, VerificationReport], None] | None = None


CONSTRUCTIONS = {
    "fibonacci": Construction(
        lambda p: quadratic.fibonacci_like_set(p.a),
        lambda p, bound: quadratic.fibonacci_like_terms(p.a, bound),
        scan_from=0,
    ),
    "quadratic": Construction(
        lambda p: quadratic.quadratic_pisot_unit_set(p.a, p.norm),
        lambda p, bound: quadratic.nint_powers(quadratic.quadratic_unit(p.a, p.norm), bound),
        scan_from=0,
    ),
    "quadratic-filter": Construction(
        lambda p: quadratic.norm_plus_filtered_set(p.a),
        lambda p, bound: quadratic.odd_index_denominators(p.a, bound),
        scan_from=1,
    ),
    "cubic": Construction(
        lambda p: cubic.cubic_pisot_set(p.a, p.b).certificate,
        lambda p, bound: recurrence_terms(cubic.cubic_recurrence(p.a, p.b), bound),
        scan_from=1,
        annotate=cubic.flag_extra_orbit,
    ),
    "verysparse": Construction(
        lambda p: verysparse.very_sparse_set(verysparse.very_sparse_alpha(p.sequence, p.C, p.D)),
        lambda p, bound: [n for n in p.sequence if n <= bound],
        scan_from=None,
    ),
}


def construction(name: str) -> Construction:
    try:
        return CONSTRUCTIONS[name]
    except KeyError:
        raise PreconditionError(f"unknown construction {name!r}") from None
