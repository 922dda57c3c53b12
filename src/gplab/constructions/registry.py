"""The named constructions: each builds a certificate and lists its target set.

``params`` has the attributes a construction reads (the ``gp`` parser's
namespace): ``a``, ``b``, ``norm``, ``C``, ``D``, ``sequence`` (integers).
Each oracle is the function its builder verifies against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..errors import PreconditionError
from . import cubic, quadratic, verysparse
from .certificate import Certificate
from .recurrence import recurrence_terms


@dataclass(frozen=True)
class Construction:
    build: Callable[[object], Certificate]
    oracle: Callable[[object, int], list[int]]


CONSTRUCTIONS = {
    "fibonacci": Construction(
        lambda p: quadratic.fibonacci_like_set(p.a),
        lambda p, bound: quadratic.fibonacci_like_terms(p.a, bound),
    ),
    "quadratic": Construction(
        lambda p: quadratic.quadratic_pisot_unit_set(p.a, p.norm),
        lambda p, bound: quadratic.nint_powers(quadratic.quadratic_unit(p.a, p.norm), bound),
    ),
    "quadratic-filter": Construction(
        lambda p: quadratic.norm_plus_filtered_set(p.a),
        lambda p, bound: quadratic.odd_index_denominators(p.a, bound),
    ),
    "cubic": Construction(
        lambda p: cubic.cubic_pisot_set(p.a, p.b).certificate,
        lambda p, bound: recurrence_terms(cubic.cubic_recurrence(p.a, p.b), bound),
    ),
    "verysparse": Construction(
        lambda p: verysparse.very_sparse_snapshot(
            verysparse.very_sparse_alpha(p.sequence, p.C, p.D)
        ),
        lambda p, bound: [n for n in p.sequence if n <= bound],
    ),
}


def construction(name: str) -> Construction:
    try:
        return CONSTRUCTIONS[name]
    except KeyError:
        raise PreconditionError(f"unknown construction {name!r}") from None
