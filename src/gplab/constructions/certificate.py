"""Certificates: an indicator expression plus empirical exceptional data.

A certificate claims that its indicator agrees with a target set for all
scanned ``n >= exceptional_bound``; mismatches below the bound are listed
explicitly.  The exceptional data is always determined by one scan against
an oracle, never assumed.  Builders return a certificate with no scan
behind it; ``verify_certificate`` (which ``gp cert`` runs from the
registry's scan start to 4000) writes the data its scan finds.

The indicator decides membership, and ``members_in``, one window scan of
it over increasing points, is the one place that asks it.  ``points``
names the points of [lo, hi] a scan decides: the proposals of the
indicator's support analysis (``gpexpr.proposals``), as increasing pieces,
a ``range`` for each run proposed whole.  They are the Legendre candidates
of a quadratic distance test and of a very sparse alpha's range and zero
tests, and the lattice-box points of a cubic certificate's plateau test,
pulled back through a transfer and joined over an OR (see
:mod:`gplab.gpexpr.support`), or every point of an indicator of any other
shape.  They are read off the indicator alone, so a printed certificate
proposes what the built one does.  ``members`` decides each piece in one
``members_in`` scan, with the certificate's own indicator, so the
precision budget reaches every scan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from ..errors import ParseError, PreconditionError
from ..gpexpr import Expr, members_in, parse, proposals, to_text
from ..realnum import DEFAULT_MAX_BITS


@dataclass
class Certificate:
    indicator: Expr
    target_description: str
    exceptional_bound: int = 0
    exceptional: tuple[int, ...] = ()
    meta: dict = field(default_factory=dict)

    def members_in(self, points: Sequence[int], max_bits: int = DEFAULT_MAX_BITS) -> Iterator[int]:
        """The indicator's members among ``points``, increasing integers."""
        return members_in(self.indicator, points, max_bits)

    def member(self, n: int, max_bits: int = DEFAULT_MAX_BITS) -> bool:
        return n in self.members(n, n, max_bits)

    def points(self, lo: int, hi: int) -> list[Sequence[int]]:
        """The points ``members`` decides: the proposals in [lo, hi] of the
        indicator's support analysis (``gpexpr.proposals``), increasing
        pieces in increasing order."""
        return proposals(self.indicator, lo, hi)

    def members(self, lo: int, hi: int, max_bits: int = DEFAULT_MAX_BITS) -> list[int]:
        """The points of [lo, hi] where the indicator holds, in increasing order:
        ``points(lo, hi)``, each piece decided in one ``members_in`` scan."""
        return [n for piece in self.points(lo, hi) for n in self.members_in(piece, max_bits)]

    # -- serialization ------------------------------------------------------
    def to_file_text(self) -> str:
        lines = [f"target: {self.target_description}"]
        lines.append(f"exceptional_bound: {self.exceptional_bound}")
        lines.append("exceptional: " + " ".join(str(x) for x in self.exceptional))
        try:
            for key in sorted(self.meta):
                value = self.meta[key]
                if isinstance(value, (str, int, Fraction)) and "\n" not in str(value):
                    lines.append(f"{key}: {value}")
        except ValueError:  # Python prints no integer of more than 4300 digits
            size = max(abs(value.numerator), value.denominator).bit_length()
            raise PreconditionError(f"{key} of {size} bits is too long to print") from None
        lines.append("")
        lines.append(to_text(self.indicator))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_file_text(cls, text: str) -> "Certificate":
        header: dict[str, str] = {}
        lines = text.splitlines()
        i = 0
        for i, line in enumerate(lines):
            if not line.strip():
                break
            if ":" not in line:
                raise ParseError(f"malformed header line {line!r}", i + 1, 1)
            key, _, value = line.partition(":")
            header[key.strip()] = value.strip()
        try:
            indicator = parse("\n".join(lines[i + 1 :]))
        except ParseError as exc:
            if exc.line is None:
                raise
            # the program starts on the file's line i + 2
            raise ParseError(exc.message, exc.line + i + 1, exc.col) from None
        try:
            exc = tuple(int(tok) for tok in header.get("exceptional", "").split())
            bound = int(header.get("exceptional_bound", "0"))
        except ValueError:
            raise ParseError("exceptional and exceptional_bound must be integers") from None
        meta = {
            k: v
            for k, v in header.items()
            if k not in ("target", "exceptional_bound", "exceptional")
        }
        return cls(
            indicator=indicator,
            target_description=header.get("target", ""),
            exceptional_bound=bound,
            exceptional=exc,
            meta=meta,
        )


@dataclass
class VerificationReport:
    range_lo: int
    range_hi: int
    members_found: tuple[int, ...]
    oracle_members: tuple[int, ...]
    symmetric_difference: tuple[int, ...]
    exceptional_bound: int

    def to_text(self) -> str:
        rows = [
            f"range: {self.range_lo} {self.range_hi}",
            "members_found: " + " ".join(map(str, self.members_found)),
            "oracle_members: " + " ".join(map(str, self.oracle_members)),
            "symmetric_difference: " + " ".join(map(str, self.symmetric_difference)),
            f"exceptional_bound: {self.exceptional_bound}",
        ]
        return "\n".join(rows) + "\n"


def verify_certificate(
    cert: Certificate,
    oracle_members: Iterable[int],
    lo: int,
    hi: int,
    max_bits: int = DEFAULT_MAX_BITS,
) -> VerificationReport:
    """Scan the certificate on [lo, hi] and compare with oracle membership.

    The exceptional bound is one past the largest mismatch on the scanned
    range (``lo`` if there is none).  The certificate's exceptional data and
    ``scanned_to`` are replaced by this scan's results.  An empty range
    (``lo > hi``) is a ``PreconditionError``: a scan of no point would
    report agreement.
    """
    if lo > hi:
        raise PreconditionError(f"empty range: from {lo} is past to {hi}")
    found = cert.members(lo, hi, max_bits)
    oracle = sorted(x for x in set(oracle_members) if lo <= x <= hi)
    sym = sorted(set(found).symmetric_difference(oracle))
    bound = max(sym) + 1 if sym else lo
    report = VerificationReport(
        range_lo=lo,
        range_hi=hi,
        members_found=tuple(found),
        oracle_members=tuple(oracle),
        symmetric_difference=tuple(sym),
        exceptional_bound=bound,
    )
    cert.exceptional_bound = bound
    cert.exceptional = tuple(sym)
    cert.meta["scanned_to"] = hi
    return report
