"""Exact real arithmetic: number fields, enclosure streams, unified values,
and the integer fixed-point kernels that prefilters and dyadic evaluation share.

Every non-rational value is enclosed by one protocol: integers
``lo <= x * 2^bits <= hi`` with ``hi - lo <= 2`` (``dyadic_enclosure`` for
field elements, ``RefinableReal.interval`` for streams, ``fixed_enclosure``
for any value)."""

from .field import FieldElement, NumberField, dyadic_enclosure
from .fixed import (
    NeedBits,
    ceil_root,
    dist_iv,
    fixed_enclosure,
    floor_iv,
    mul_iv,
    prefilter_bits,
    scale_iv,
)
from .refine import DEFAULT_MAX_BITS, THETA, RefinableReal, rr_sqrt
from .value import (
    Real,
    as_stream,
    compare,
    dist_of,
    floor_frac,
    frac_of,
    interval_of,
    is_exact_zero,
    nint_of,
    radd,
    rinv,
    rmul,
    rneg,
    rpow,
    rsub,
    sign_of,
    to_float,
)

__all__ = [
    "NumberField",
    "FieldElement",
    "dyadic_enclosure",
    "NeedBits",
    "ceil_root",
    "dist_iv",
    "fixed_enclosure",
    "floor_iv",
    "mul_iv",
    "prefilter_bits",
    "scale_iv",
    "RefinableReal",
    "THETA",
    "DEFAULT_MAX_BITS",
    "Real",
    "as_stream",
    "compare",
    "dist_of",
    "floor_frac",
    "frac_of",
    "interval_of",
    "is_exact_zero",
    "nint_of",
    "radd",
    "rinv",
    "rmul",
    "rneg",
    "rpow",
    "rsub",
    "sign_of",
    "rr_sqrt",
    "to_float",
]
