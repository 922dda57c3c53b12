"""Batch command-line front end.

Exit codes: 0 success, 2 precondition/parse errors, 3 precision exhausted.
Artifacts are written atomically (temp file + rename) and contain no
timestamps, so identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import tempfile
from fractions import Fraction

from .cf import best_approx_1d, best_approx_2d, cf_expand, convergents
from .constructions import cubic_pisot_set, verify_certificate
from .constructions.registry import CONSTRUCTIONS, SCAN_TO, construction
from .errors import ParseError, PrecisionExhausted, PreconditionError, GPLabError
from .gpexpr import depends_on_var, eval_exact, members, parse
from .ipsearch import (
    ap_witness_in_small_dist_set,
    density_estimate,
    find_ipr_in_set,
    translated_ip_probe,
)
from .nilorbit import default_orbit_spec, equidist_stats, growth_count, orbit_point
from .realnum import DEFAULT_MAX_BITS, FieldElement, interval_of, to_float
from .suites import run_suite

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PRECISION = 3


def _write_atomic(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".gp-tmp-")
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise PreconditionError(f"cannot write {path}: {exc.strerror}") from None
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _expr_text(spec: str) -> str:
    """The expression text: the file ``spec`` names, or ``spec`` itself."""
    if not os.path.exists(spec):
        return spec
    try:
        with open(spec, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        why = exc.strerror if isinstance(exc, OSError) else "not UTF-8 text"
        raise PreconditionError(f"cannot read --expr file {spec}: {why}") from None


def _format_rows(rows: list[dict], fmt: str, columns: list[str]) -> str:
    if fmt == "json":
        return json.dumps(rows, indent=2, default=str) + "\n"
    if fmt == "csv":
        out = [",".join(columns)]
        for row in rows:
            out.append(",".join(str(row.get(c, "")) for c in columns))
        return "\n".join(out) + "\n"
    # text
    widths = {c: max(len(c), *(len(str(r.get(c, ""))) for r in rows)) if rows else len(c) for c in columns}
    lines = ["  ".join(c.ljust(widths[c]) for c in columns)]
    for row in rows:
        lines.append("  ".join(str(row.get(c, "")).ljust(widths[c]) for c in columns))
    return "\n".join(lines) + "\n"


def _interval_strings(value, bits: int = 96) -> tuple[str, str]:
    lo, hi = interval_of(value, bits)
    try:
        return f"{lo.numerator}/{lo.denominator}", f"{hi.numerator}/{hi.denominator}"
    except ValueError:  # Python prints no integer of more than 4300 digits
        size = max(abs(lo.numerator), abs(hi.numerator)).bit_length()
        raise PreconditionError(f"value bounds of {size} bits are too long to print") from None


def cmd_members(args) -> int:
    found = members(parse(_expr_text(args.expr)), args.range_from, args.range_to, args.maxprec)
    rows = [{"n": n} for n in found]
    _write_atomic(args.out, _format_rows(rows, args.format, ["n"]))
    return EXIT_OK


def cmd_eval(args) -> int:
    expr = parse(_expr_text(args.expr))
    rows = []
    for n in range(args.range_from, args.range_to + 1):
        v = eval_exact(expr, n, args.maxprec)
        lo, hi = _interval_strings(v)
        rows.append({"n": n, "value": to_float(v), "value_lo": lo, "value_hi": hi})
    _write_atomic(args.out, _format_rows(rows, args.format, ["n", "value", "value_lo", "value_hi"]))
    return EXIT_OK


def cmd_verify(args) -> int:
    spec = construction(args.construction)
    cert = spec.build(args)
    oracle = spec.oracle(args, args.range_to)
    report = verify_certificate(cert, oracle, args.range_from, args.range_to, args.maxprec)
    _write_atomic(args.out, report.to_text())
    return EXIT_OK


def cmd_cert(args) -> int:
    spec = construction(args.construction)
    cert = spec.build(args)
    if spec.scan_from is not None:
        report = verify_certificate(cert, spec.oracle(args, SCAN_TO), spec.scan_from, SCAN_TO)
        if spec.annotate is not None:
            spec.annotate(cert, report)
    _write_atomic(args.out, cert.to_file_text())
    return EXIT_OK


def _constant(args):
    """The value of ``--expr``, which must not depend on n."""
    expr = parse(_expr_text(args.expr))
    if depends_on_var(expr):
        raise PreconditionError(f"{args.command} needs a constant expression, not one in n")
    return eval_exact(expr, 0, args.maxprec)


def cmd_cf(args) -> int:
    value = _constant(args)
    if not isinstance(value, FieldElement):
        raise PreconditionError("cf requires an exact quadratic constant expression")
    cf = cf_expand(value)
    conv = convergents(cf, args.count)
    rows = [{"j": j, "p": p, "q": q} for j, (p, q) in enumerate(conv)]
    header = f"# continued fraction: {cf}\n"
    try:
        table = _format_rows(rows, args.format, ["j", "p", "q"])
    except ValueError:  # Python prints no integer of more than 4300 digits
        size = max(abs(conv[-1][0]), conv[-1][1]).bit_length()
        raise PreconditionError(f"convergents of up to {size} bits are too long to print") from None
    _write_atomic(args.out, header + table)
    return EXIT_OK


def cmd_bestapprox(args) -> int:
    if args.cubic_a is not None:
        if args.expr is not None:
            raise PreconditionError("bestapprox takes --expr (1-D) or --cubic-a (2-D), not both")
        cons = cubic_pisot_set(args.cubic_a, 1 if args.cubic_b is None else args.cubic_b)
        ba = best_approx_2d(cons.theta, cons.norm, args.Q)
        rows = []
        for b in ba:
            lo, hi = _interval_strings(b.value)
            rows.append({"q": b.q, "p1": b.p[0], "p2": b.p[1], "value_lo": lo, "value_hi": hi})
        cols = ["q", "p1", "p2", "value_lo", "value_hi"]
    else:
        if args.expr is None:
            raise PreconditionError("bestapprox needs --expr (1-D) or --cubic-a (2-D)")
        if args.cubic_b is not None:
            raise PreconditionError("bestapprox reads --cubic-b only with --cubic-a")
        value = _constant(args)
        ba = best_approx_1d(value, args.Q, args.maxprec)
        rows = []
        for b in ba:
            lo, hi = _interval_strings(b.value)
            rows.append({"q": b.q, "p1": b.p[0], "value_lo": lo, "value_hi": hi})
        cols = ["q", "p1", "value_lo", "value_hi"]
    _write_atomic(args.out, _format_rows(rows, args.format, cols))
    return EXIT_OK


# the options each heis mode reads besides --c, with their defaults
_HEIS_READS = {
    "orbit": {"range_from": 0, "range_to": 1000},
    "growth": {"ladder": (1000, 10000, 100000, 1000000)},
    "equidist": {"range_to": 1000, "grid": 4},
}


def cmd_heis(args) -> int:
    reads = _HEIS_READS[args.mode]
    ignored = [
        f"--{dest.removeprefix('range_')}"
        for dest in ("range_from", "range_to", "ladder", "grid")
        if dest not in reads and getattr(args, dest) is not None
    ]
    if ignored:
        raise PreconditionError(f"heis --mode {args.mode} reads no {', '.join(ignored)}")
    for dest, default in reads.items():
        if getattr(args, dest) is None:
            setattr(args, dest, default)
    try:
        c = Fraction(args.c)
    except (ValueError, ZeroDivisionError):
        raise PreconditionError(f"--c must be a rational such as 1/20, not {args.c!r}") from None
    spec = default_orbit_spec(c)
    if args.mode == "growth":
        rows = growth_count(spec, args.ladder, args.maxprec)
        data = [
            {"N": r.N, "S_N": r.count, "ratio": f"{r.ratio:.6f}", "skipped_count": r.skipped}
            for r in rows
        ]
        _write_atomic(args.out, _format_rows(data, args.format, ["N", "S_N", "ratio", "skipped_count"]))
    elif args.mode == "equidist":
        table, disc = equidist_stats(spec, args.range_to, args.grid, args.maxprec)
        data = [
            {
                "box_index": "/".join(map(str, b.index)),
                "count": b.count,
                "volume": f"{b.volume:.8f}",
                "deviation": f"{b.deviation:.8f}",
            }
            for b in table
        ]
        text = _format_rows(data, args.format, ["box_index", "count", "volume", "deviation"])
        text += f"# max_discrepancy: {disc:.8f}\n"
        _write_atomic(args.out, text)
    else:
        rows = []
        for n in range(args.range_from, args.range_to + 1):
            p = orbit_point(spec, n, args.maxprec)
            rows.append(
                {"n": n, "x": to_float(p.x), "y": to_float(p.y), "z": to_float(p.z)}
            )
        _write_atomic(args.out, _format_rows(rows, args.format, ["n", "x", "y", "z"]))
    return EXIT_OK


def cmd_ipsearch(args) -> int:
    if args.mode == "ap":
        rep = ap_witness_in_small_dist_set(args.r, args.maxprec)
    else:
        cert = construction(args.construction).build(args)
        if args.mode == "ipr":
            rep = find_ipr_in_set(cert, args.r, args.bound, args.maxprec)
        else:
            rep = translated_ip_probe(cert, args.r, args.bound, args.shifts or [0], args.maxprec)
    print(f"runtime_ms: {rep.runtime_ms}", file=sys.stderr)
    _write_atomic(args.out, rep.to_text())
    return EXIT_OK


def cmd_density(args) -> int:
    cert = construction(args.construction).build(args)
    est = density_estimate(cert, args.N, args.maxprec)
    rows = [
        {
            "N": est.N,
            "count": est.count,
            "density": f"{est.density:.8g}",
            "partial": str(est.partial).lower(),
        }
    ]
    _write_atomic(args.out, _format_rows(rows, args.format, ["N", "count", "density", "partial"]))
    return EXIT_OK


def cmd_suite(args) -> int:
    results = run_suite(args.name)
    lines = []
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"[{status}] {r.name}: {r.detail}")
        print(f"{r.name}: {r.seconds:.2f}s", file=sys.stderr)
        failed += 0 if r.passed else 1
    lines.append(f"{len(results) - failed}/{len(results)} checks passed")
    _write_atomic(args.out, "\n".join(lines) + "\n")
    return EXIT_OK if failed == 0 else 1


def _add_common(p: argparse.ArgumentParser, maxprec: bool = True, fmt: bool = True) -> None:
    """--out and --jobs on every command, --jobs with the one value 1 that the benchmark
    harness passes; --maxprec and --format where the command reads them."""
    if maxprec:
        p.add_argument("--maxprec", type=_budget, default=DEFAULT_MAX_BITS, help="precision budget in bits")
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    if fmt:
        p.add_argument("--format", choices=("csv", "json", "text"), default="csv")
    p.add_argument("--jobs", type=int, choices=(1,), default=1, help="gp runs in one process")


def _budget(text: str) -> int:
    bits = int(text)
    if bits < 1:
        raise argparse.ArgumentTypeError(f"the precision budget must be at least 1 bit, not {bits}")
    return bits


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def _add_construction_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--construction", default="fibonacci", choices=sorted(CONSTRUCTIONS))
    p.add_argument("--a", type=int, default=1)
    p.add_argument("--b", type=int, default=1)
    p.add_argument("--norm", type=int, default=-1, choices=(-1, 1))
    p.add_argument("--C", type=int, default=5)
    p.add_argument("--D", type=int, default=6)
    p.add_argument("--sequence", type=_int_list, default="2,128,562949953421312")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="gp", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("members", help="scan an indicator expression for members")
    p.add_argument("--expr", required=True, help="expression text or file path")
    p.add_argument("--from", dest="range_from", type=int, required=True)
    p.add_argument("--to", dest="range_to", type=int, required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_members)

    p = sub.add_parser("eval", help="evaluate an expression on a range")
    p.add_argument("--expr", required=True)
    p.add_argument("--from", dest="range_from", type=int, required=True)
    p.add_argument("--to", dest="range_to", type=int, required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("verify", help="verify a construction against its oracle")
    _add_construction_args(p)
    p.add_argument("--from", dest="range_from", type=int, default=1)
    p.add_argument("--to", dest="range_to", type=int, required=True)
    _add_common(p, fmt=False)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("cert", help="emit a certificate file for a construction")
    _add_construction_args(p)
    _add_common(p, maxprec=False, fmt=False)
    p.set_defaults(fn=cmd_cert)

    p = sub.add_parser("cf", help="continued fraction of a quadratic constant")
    p.add_argument("--expr", required=True, help="constant expression (no n)")
    p.add_argument("--count", type=int, default=10)
    _add_common(p)
    p.set_defaults(fn=cmd_cf)

    p = sub.add_parser("bestapprox", help="best approximations (1-D or cubic 2-D)")
    p.add_argument("--expr", help="1-D: constant expression")
    p.add_argument("--cubic-a", type=int, default=None, help="2-D: cubic parameter a")
    p.add_argument("--cubic-b", type=int, default=None, help="2-D: cubic parameter b (default 1)")
    p.add_argument("--Q", type=int, default=100)
    _add_common(p)
    p.set_defaults(fn=cmd_bestapprox)

    p = sub.add_parser("heis", help="Heisenberg orbit tools")
    p.add_argument("--mode", choices=("orbit", "growth", "equidist"), default="growth")
    p.add_argument("--c", default="1/20", help="threshold exponent (rational)")
    p.add_argument("--from", dest="range_from", type=int, help="orbit (default 0)")
    p.add_argument("--to", dest="range_to", type=int, help="orbit, equidist (default 1000)")
    p.add_argument("--ladder", type=_int_list, help="growth (default 1000,10000,100000,1000000)")
    p.add_argument("--grid", type=int, help="equidist (default 4)")
    _add_common(p)
    p.set_defaults(fn=cmd_heis)

    p = sub.add_parser("ipsearch", help="IP_r and translated-IP probes")
    p.add_argument("--mode", choices=("ipr", "translated", "ap"), default="ipr")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--bound", type=int, default=10**4)
    p.add_argument("--shifts", type=_int_list, default=None,
                   help="comma-separated shifts, tried in order (default 0); sums + shift "
                   "are searched among n >= 1")
    _add_construction_args(p)
    _add_common(p, fmt=False)
    p.set_defaults(fn=cmd_ipsearch)

    p = sub.add_parser("density", help="density estimate of a construction set")
    _add_construction_args(p)
    p.add_argument("--N", type=int, required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_density)

    p = sub.add_parser("suite", help="run a named check suite")
    p.add_argument("name", choices=("quick", "paper-checks"))
    _add_common(p, maxprec=False, fmt=False)
    p.set_defaults(fn=cmd_suite)

    return ap


def _join_negative_shifts(argv: list[str]) -> list[str]:
    """Read ``--shifts -3,-1`` as ``--shifts=-3,-1``: argparse takes a token
    that starts with "-" and is not a plain number for an option."""
    out: list[str] = []
    for tok in argv:
        if out and out[-1] == "--shifts" and tok[:1] == "-" and tok[1:2].isdigit():
            out[-1] = f"--shifts={tok}"
        else:
            out.append(tok)
    return out


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The ``gp`` parser, built once per process: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(_join_negative_shifts(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ParseError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PrecisionExhausted as exc:
        print(f"precision exhausted: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except GPLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
