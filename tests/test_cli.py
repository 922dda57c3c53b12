"""CLI contract tests: exit codes, determinism, artifact round trips."""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from gplab.cli import build_parser, main
from oracles import fibonacci_upto, first_finite_sums


def run(args):
    return main(args)


def test_members_expression_string(tmp_path, capsys):
    out = tmp_path / "m.csv"
    code = run(
        [
            "members",
            "--expr",
            "let phi = root(x^2-x-1, 1, 2); "
            "floor(1 - frac(theta*floor(2*n*(n*phi - floor(n*phi)))))",
            "--from",
            "2",
            "--to",
            "60",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    body = out.read_text().splitlines()
    assert body[0] == "n"
    # one branch of the Fibonacci indicator: a subset of the Fibonacci numbers
    got = [int(x) for x in body[1:]]
    assert set(got) <= {2, 3, 5, 8, 13, 21, 34, 55}


def test_members_certificate_file(tmp_path):
    cert_path = tmp_path / "fib.gp"
    code = run(["cert", "--construction", "fibonacci", "--a", "1", "--out", str(cert_path)])
    assert code == 0
    text = cert_path.read_text()
    program = text.split("\n\n", 1)[1]
    expr_path = tmp_path / "fib-expr.gp"
    expr_path.write_text(program)
    out = tmp_path / "members.csv"
    code = run(
        ["members", "--expr", str(expr_path), "--from", "2", "--to", "100", "--out", str(out)]
    )
    assert code == 0
    got = [int(x) for x in out.read_text().splitlines()[1:]]
    assert got == [2, 3, 5, 8, 13, 21, 34, 55, 89]


def test_members_of_a_printed_cubic_certificate(tmp_path):
    # the printed indicator proposes the built certificate's lattice-box
    # points, so it reaches 10^30 as the built one does
    from gplab.constructions.cubic import cubic_pisot_set

    cert_path = tmp_path / "cubic.gp"
    assert run(["cert", "--construction", "cubic", "--a", "1", "--b", "1", "--out", str(cert_path)]) == 0
    expr_path = tmp_path / "cubic-expr.gp"
    expr_path.write_text(cert_path.read_text().split("\n\n", 1)[1])
    out = tmp_path / "members.csv"
    argv = ["members", "--expr", str(expr_path), "--from", "1", "--to", str(10**30), "--out", str(out)]
    assert run(argv) == 0
    got = [int(x) for x in out.read_text().splitlines()[1:]]
    assert got == cubic_pisot_set(1, 1).certificate.members(1, 10**30)
    assert len(got) > 100


@pytest.mark.parametrize(
    "cert_args,hi",
    [(["fibonacci", "--a", "1"], 10**4), (["cubic", "--a", "1", "--b", "1"], 10**30)],
)
def test_members_of_a_certificate_file_as_written(tmp_path, cert_args, hi):
    # a file written by gp cert is read through its header: the members are
    # those of the program with the header stripped
    cert_path = tmp_path / "cert.gp"
    assert run(["cert", "--construction", *cert_args, "--out", str(cert_path)]) == 0
    expr_path = tmp_path / "expr.gp"
    expr_path.write_text(cert_path.read_text().split("\n\n", 1)[1])
    got = {}
    for path in (cert_path, expr_path):
        out = tmp_path / f"{path.stem}.csv"
        argv = ["members", "--expr", str(path), "--from", "1", "--to", str(hi), "--out", str(out)]
        assert run(argv) == 0
        got[path] = out.read_text()
    assert got[cert_path] == got[expr_path] and len(got[cert_path].splitlines()) > 10


def test_members_of_the_printed_very_sparse_certificate(tmp_path):
    # the printed certificate proposes what the built one does, so gp members
    # of the file as written reaches 10^18
    cert_path, out = tmp_path / "cert.gp", tmp_path / "members.csv"
    assert run(["cert", "--construction", "verysparse", "--out", str(cert_path)]) == 0
    argv = ["members", "--expr", str(cert_path), "--from", "1", "--to", str(10**18), "--out", str(out)]
    assert run(argv) == 0
    assert out.read_text().split() == ["n", "2", "128", "562949953421312"]


@pytest.mark.parametrize(
    "header",
    [
        "target: x\nexceptional_bound: many\n",
        "target: x\nexceptional: 1 two\n",
        "target: x\nno colon on this line\n",
        "target: x\n",  # a header and no program
    ],
)
def test_exit_code_malformed_certificate_header(tmp_path, header, capsys):
    path = tmp_path / "bad.gp"
    program = "" if header.count("\n") == 1 else "floor(n) - n + 1\n"
    path.write_text(header + "\n" + program)
    assert run(["members", "--expr", str(path), "--from", "1", "--to", "5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err, err
    assert len(err.splitlines()) == 1, err


def test_certificate_file_parse_error_names_the_file_line(tmp_path, capsys):
    path = tmp_path / "bad.gp"
    path.write_text("target: x\nexceptional_bound: 0\n\nfloor(n\n")
    assert run(["members", "--expr", str(path), "--from", "1", "--to", "5"]) == 2
    assert "(line 4, column 8)" in capsys.readouterr().err


def test_exit_code_parse_error(capsys):
    assert run(["members", "--expr", "floor(n", "--from", "1", "--to", "2"]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err


def test_exit_code_bad_construction_params():
    assert run(["cert", "--construction", "quadratic", "--a", "1", "--norm", "1"]) == 2
    assert run(["verify", "--construction", "cubic", "--a", "1", "--b", "3", "--to", "100"]) == 2
    assert run(["verify", "--construction", "verysparse", "--sequence", "2,x", "--to", "9"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["bestapprox", "--Q", "10"],
        ["heis", "--c", "abc"],
        ["heis", "--c", "1/0"],
        ["heis", "--mode", "growth", "--ladder", "0,10", "--c", "1/3"],
        # options the mode ignores: growth reads --ladder, equidist --to and
        # --grid, orbit --from and --to
        ["heis", "--mode", "growth", "--grid", "9", "--from", "5", "--to", "7"],
        ["heis", "--mode", "orbit", "--ladder", "5,6", "--grid", "3"],
        ["heis", "--mode", "equidist", "--ladder", "7", "--from", "9"],
        ["heis", "--mode", "equidist", "--to", "-5", "--grid", "1"],  # no orbit of negative length
        ["verify", "--construction", "fibonacci", "--from", "10", "--to", "5"],  # nothing scanned
        ["cf", "--expr", "let s = root(x^2-2,1,2); s + n"],  # refused, not read at n = 0
        ["bestapprox", "--expr", "let s = root(x^2-2,1,2); s + n"],
    ],
)
def test_exit_code_bad_command_input(argv, capsys):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err, err
    assert len(err.splitlines()) == 1, err


@pytest.mark.parametrize("command", ["members", "eval", "cf", "bestapprox"])
def test_exit_code_unreadable_expr_file(command, tmp_path, capsys):
    # a directory, and a file that is not UTF-8 text: one error line naming
    # the path, never a traceback
    latin1 = tmp_path / "latin1.gp"
    latin1.write_bytes("floor(n) + 1 \xe9".encode("latin-1"))
    extra = {"members": ["--from", "1", "--to", "2"], "eval": ["--from", "1", "--to", "2"]}
    for path in (tmp_path, latin1):
        assert run([command, "--expr", str(path), *extra.get(command, [])]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(path) in err, err
        assert len(err.splitlines()) == 1, err


def test_exit_code_bad_int_lists(capsys):
    for argv in (["heis", "--ladder", "10,x"], ["ipsearch", "--mode", "translated", "--r", "2",
                                                "--shifts", "0,y"]):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith(f"gp {argv[0]}: error:"), err
        assert "Traceback" not in err


@pytest.mark.parametrize(
    "r,bound,shifts", [(2, 58, [-3]), (1, 58, [-3]), (2, 57, [-2]), (2, 5, [-7, -9])]
)
def test_ipsearch_negative_shifts(tmp_path, capsys, r, bound, shifts):
    out = tmp_path / "ip.txt"
    argv = ["ipsearch", "--mode", "translated", "--r", str(r), "--bound", str(bound),
            "--construction", "fibonacci", "--shifts=" + ",".join(map(str, shifts))]
    assert run(argv + ["--out", str(out)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    rows = dict(line.split(": ", 1) for line in out.read_text().splitlines())
    fib = set(fibonacci_upto(bound + max(shifts))) - {0}
    gens, shift = first_finite_sums(fib, r, bound, shifts)
    assert rows["witness"] == (" ".join(map(str, gens)) if gens else "none")
    assert rows.get("shift") == (str(shift) if gens else None)
    assert rows["exhaustive"] == str(gens is None).lower()


def test_ipsearch_negative_shifts_space_separated(tmp_path):
    argv = ["ipsearch", "--mode", "translated", "--r", "2", "--bound", "58",
            "--construction", "fibonacci", "--jobs", "1"]
    outs = []
    for form in (["--shifts=-3,-1"], ["--shifts", "-3,-1"]):
        out = tmp_path / f"ip{len(outs)}.txt"
        assert run(argv + form + ["--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert b"shift: -3" in outs[0]


def test_exit_code_unknown_suite():
    assert run(["suite", "nope"]) == 2


def test_flags_a_command_ignores_are_rejected(capsys):
    assert run(["cert", "--construction", "fibonacci", "--format", "json"]) == 2
    assert run(["cert", "--construction", "fibonacci", "--maxprec", "64"]) == 2
    assert run(["suite", "quick", "--format", "json"]) == 2
    # gp runs in one process: --jobs takes 1 on every command, and no other value
    assert run(["members", "--expr", "n", "--from", "1", "--to", "2", "--jobs", "2"]) == 2
    assert run(["verify", "--to", "10", "--jobs", "0"]) == 2
    parser = build_parser()
    for argv in (["members", "--expr", "n", "--from", "1", "--to", "2"],
                 ["eval", "--expr", "n", "--from", "1", "--to", "2"], ["verify", "--to", "2"],
                 ["cert"], ["cf", "--expr", "1/3"], ["bestapprox", "--expr", "1/3"], ["heis"],
                 ["ipsearch", "--r", "2"], ["density", "--N", "2"], ["suite", "quick"]):
        assert parser.parse_args(argv + ["--jobs", "1"]).jobs == 1
    capsys.readouterr()
    # 1-D reads --expr only, 2-D --cubic-a and --cubic-b only
    for argv in (["bestapprox", "--expr", "1/3", "--cubic-a", "1"],
                 ["bestapprox", "--expr", "1/3", "--cubic-b", "2"]):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1, err


def test_cli_import_leaves_numpy_out():
    # numpy is only the benchmark's optional extra: gp must start without it
    import gplab

    src = os.path.dirname(os.path.dirname(gplab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, gplab.cli; print([m for m in sys.modules if m.startswith('numpy')])"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_cli_import_leaves_mpmath_out():
    # mpmath serves only the very-sparse densifier, which no gp command runs
    import gplab

    src = os.path.dirname(os.path.dirname(gplab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, gplab.cli; print([m for m in sys.modules if m.startswith('mpmath')])"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_members_refuses_a_huge_root_power_at_once():
    # x^(10^9) is refused before it is expanded; a subprocess, so a hang times out
    import gplab

    src = os.path.dirname(os.path.dirname(gplab.__file__))
    expr = "let r = root(x^1000000000, 0, 1); n"
    argv = [sys.executable, "-m", "gplab.cli", "members", "--expr", expr, "--from", "1", "--to", "1"]
    out = subprocess.run(
        argv, env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=2
    )
    assert out.returncode == 2, out.stderr
    assert "Traceback" not in out.stderr and "root()" in out.stderr


def test_members_non_boolean_value_exits_2(tmp_path, capsys):
    # 2*floor(n/2) is 2 at n = 2: one error line naming the value, no traceback
    assert run(["members", "--expr", "2*floor(n/2)", "--from", "0", "--to", "100",
                "--out", str(tmp_path / "m.csv")]) == 2
    err = capsys.readouterr().err
    assert err == "error: indicator value 2 at n=2\n", err
    assert not (tmp_path / "m.csv").exists()


def test_bestapprox_reads_only_the_convergents_to_q():
    # Q = 10^30 lists the 79 Pell denominators without a pass over every q;
    # a subprocess, so a hang times out
    import gplab

    src = os.path.dirname(os.path.dirname(gplab.__file__))
    argv = [sys.executable, "-m", "gplab.cli", "bestapprox", "--expr",
            "let s = root(x^2-2, 1, 2); s", "--Q", str(10**30)]
    out = subprocess.run(
        argv, env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=10
    )
    assert out.returncode == 0, out.stderr
    pell = [1, 2]
    while pell[-1] <= 10**30:
        pell.append(2 * pell[-1] + pell[-2])
    qs = [int(line.split(",")[0]) for line in out.stdout.splitlines()[1:]]
    assert qs == pell[:-1] and len(qs) == 79


# sha256 of gp bestapprox --cubic-a A --cubic-b B --Q 100000, computed with
# the scan that decided every q <= Q behind a fixed-point screen
BESTAPPROX_2D_SHA256 = {
    (1, 1): "de65db850aa1d07de9ef9db77ce115d09b8cebb17dcabce90aecf7e77104d88d",
    (2, 1): "6255b61819e06daaf1fe1fdddbb66d7b63781137e8526b3cbed35a6c8802a31e",
    (2, -1): "1281b04c699e6e3fd1a1112f87eda8b248d2e76d60aa9b4cba136f6a89826f3d",
}


@pytest.mark.parametrize("ab", sorted(BESTAPPROX_2D_SHA256))
def test_bestapprox_2d_artifacts_to_1e5(tmp_path, ab):
    out = tmp_path / "ba.csv"
    argv = ["bestapprox", "--cubic-a", str(ab[0]), f"--cubic-b={ab[1]}", "--Q", "100000"]
    assert run(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == BESTAPPROX_2D_SHA256[ab]


def test_bestapprox_2d_to_1e30(tmp_path):
    # 114 Tribonacci records on [1, 10^30], from the lattice boxes alone
    out = tmp_path / "ba.csv"
    assert run(["bestapprox", "--cubic-a", "1", "--cubic-b", "1", "--Q", str(10**30),
                "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "q,p1,p2,value_lo,value_hi" and len(lines) == 1 + 114


def test_huge_integer_literal_is_a_parse_error(capsys):
    assert run(["members", "--expr", "1" * 5000 + "*n", "--from", "1", "--to", "2"]) == 2
    assert "integer literal of 5000 digits" in capsys.readouterr().err


def test_members_root_with_a_large_constant_term():
    # x^2 - (10^18 + 9) is shown irreducible by O(log |c0|) root counts,
    # not by trying every divisor of c0; a subprocess, so a hang times out
    import gplab

    src = os.path.dirname(os.path.dirname(gplab.__file__))
    expr = "let s = root(x^2-1000000000000000009, 1000000000, 1000000001); floor(2*frac(n*s))"
    argv = [sys.executable, "-m", "gplab.cli", "members", "--expr", expr, "--from", "1", "--to", "3"]
    out = subprocess.run(
        argv, env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=2
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["n"]


def test_members_large_power_in_dyadic_mode():
    # dyadic mode raises to a power by squaring, as exact mode does, so
    # n^1000000 takes 20 squarings, not 999999 products
    import gplab

    src = os.path.dirname(os.path.dirname(gplab.__file__))
    expr = "floor(n^1000000) - floor(n^1000000)"
    argv = [sys.executable, "-m", "gplab.cli", "members", "--expr", expr, "--from", "3", "--to", "3"]
    out = subprocess.run(
        argv, env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=5
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["n"]


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_exit_code_unwritable_out(tmp_path, capsys, where):
    out = tmp_path / "missing" / "x.csv" if where == "missing-dir" else tmp_path
    argv = ["members", "--expr", "floor(frac(theta*n)*0)", "--from", "1", "--to", "2"]
    assert run(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1, err
    assert not list(out.parent.glob(".gp-tmp-*"))  # no temporary file left behind


@pytest.mark.parametrize("maxprec", ["0", "-5"])
def test_exit_code_budget_below_one_bit(capsys, maxprec):
    argv = ["members", "--expr", "floor(frac(theta*n)*0)", "--from", "1", "--to", "2"]
    assert run(argv + ["--maxprec", maxprec]) == 2
    err = capsys.readouterr().err
    assert "--maxprec" in err and "Traceback" not in err, err


def test_exit_code_precision_exhausted():
    # (theta + 1) - theta is exactly 1, but interval streams cannot certify
    # the cancellation, so the floor stays undecided up to any budget
    code = run(
        ["members", "--expr", "floor(theta + 1 - theta)", "--from", "1", "--to", "1",
         "--maxprec", "2048"]
    )
    assert code == 3


def test_eval_and_determinism(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["eval", "--expr", "n/2 - floor(n/2)", "--from", "0", "--to", "9", "--format", "json"]
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    rows = json.loads(out1.read_text())
    assert rows[7]["value"] == 0.5


def test_eval_prints_stream_intervals_around_the_value(tmp_path):
    # theta*n is computed by stream arithmetic: each printed interval must hold
    # n*theta, which lies between n*S and n*(S + 2^-511) for the exact partial
    # sum S of theta's series through 2^-256, and be at most 2^-96 wide
    out = tmp_path / "theta.json"
    args = ["eval", "--expr", "theta*n", "--from", "-5", "--to", "40", "--format", "json"]
    assert run(args + ["--out", str(out)]) == 0
    s = sum(Fraction(1, 2 ** (2**j)) for j in range(1, 9))
    rows = json.loads(out.read_text())
    assert [row["n"] for row in rows] == list(range(-5, 41))
    for row in rows:
        n = row["n"]
        lo, hi = Fraction(row["value_lo"]), Fraction(row["value_hi"])
        assert 0 <= hi - lo <= Fraction(1, 2**96)
        ends = (n * s, n * (s + Fraction(1, 2**511)))
        assert lo <= min(ends) and max(ends) <= hi


def test_members_split_ranges_concatenate(tmp_path):
    # a range scanned whole writes the members of its two halves in order,
    # wherever the split falls, near 0 and near 10^12 (F_59 = 956722026041)
    expr = "let phi = root(x^2-x-1, 1, 2); floor(1 - frac(theta*floor(2*n*(n*phi - floor(n*phi)))))"

    def scan(lo, hi):
        out = tmp_path / f"{lo}_{hi}.csv"
        assert run(["members", "--expr", expr, "--from", str(lo), "--to", str(hi),
                    "--out", str(out)]) == 0
        return out.read_text().splitlines()[1:]

    for lo, hi in ((-60, 3000), (956722026041 - 700, 956722026041 + 800)):
        whole = scan(lo, hi)
        for mid in (lo + 7, (lo + hi) // 2, hi - 1):
            assert scan(lo, mid) + scan(mid + 1, hi) == whole
    assert scan(-60, 3000) == ["0", "2", "5", "13", "34", "89", "233", "610", "1597"]
    assert scan(956722026041 - 700, 956722026041 + 800) == ["956722026041"]


def test_verify_command(tmp_path):
    out = tmp_path / "verify.txt"
    assert run(["verify", "--construction", "fibonacci", "--a", "1", "--to", "10000",
                "--out", str(out)]) == 0
    text = out.read_text()
    assert "symmetric_difference: \n" in text or "symmetric_difference:\n" in text


def test_verysparse_verify_to_its_last_term(tmp_path, monkeypatch):
    # the default sequence's last term is 2^49: the scan confirms n = 1 and
    # its Legendre candidates, no more points than alpha has convergents;
    # the bound on g leaves no candidate that is not a member
    from gplab.cf import cf_of_rational, convergent_walk
    from gplab.constructions import Certificate, very_sparse_alpha

    members_in = Certificate.members_in
    seen = []

    def counted(self, points, *args):
        seen.extend(points)
        return members_in(self, points, *args)

    monkeypatch.setattr(Certificate, "members_in", counted)
    out = tmp_path / "verify.txt"
    assert run(["verify", "--construction", "verysparse", "--to", "562949953421312",
                "--out", str(out)]) == 0
    rows = dict(line.split(":", 1) for line in out.read_text().splitlines())
    assert rows["members_found"].split() == ["2", "128", "562949953421312"]
    assert rows["symmetric_difference"].strip() == ""
    alpha = very_sparse_alpha((2, 128, 562949953421312), 5, 6).alpha
    assert 0 < len(seen) <= sum(1 for _ in convergent_walk(cf_of_rational(alpha)))
    assert seen == [1, 2, 128, 562949953421312]


def test_verysparse_past_the_print_limit_scans_but_does_not_print(capsys):
    # with C = 28 alpha's bounds have about 25,200 bits, past the 4300 digits
    # Python prints: a scan reads no text, and gp cert exits 2 on one line
    argv = ["--construction", "verysparse", "--C", "28", "--D", "29",
            "--sequence", f"2,{2**30},{2**900}"]
    assert run(["verify", *argv, "--to", "1000000"]) == 0
    assert "members_found: 2\n" in capsys.readouterr().out
    assert run(["density", *argv, "--N", "1000"]) == 0
    assert run(["ipsearch", *argv, "--r", "2", "--bound", "100"]) == 0
    capsys.readouterr()
    assert run(["cert", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: alpha_hi of 25202 bits") and len(err.splitlines()) == 1, err


def test_verysparse_past_the_print_limit_decides_points_below_one(capsys):
    # n <= 0 is decided exactly, which names the stream of the zero test's
    # rational y - 2, past 4300 digits: the name is made only if read
    argv = ["verify", "--construction", "verysparse", "--C", "28", "--D", "29",
            "--sequence", f"2,{2**30},{2**900}", "--from", "-50", "--to", "10"]
    assert run(argv) == 0
    assert "members_found: 2\n" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, scans",
    [
        (["verify", "--construction", "quadratic", "--a", "3", "--norm", "1", "--to", "1000"], 1),
        (["cert", "--construction", "quadratic", "--a", "3", "--norm", "1"], 1),
        (["cert", "--construction", "cubic", "--a", "2", "--b", "-1"], 1),
        (["density", "--construction", "cubic", "--N", "1000"], 0),
        (["ipsearch", "--mode", "ipr", "--r", "3", "--bound", "1000"], 0),
    ],
)
def test_each_command_scans_against_the_oracle_at_most_once(tmp_path, monkeypatch, argv, scans):
    # builders do not scan: gp verify scans the range it is given, gp cert
    # the registry's, and density and ipsearch read no exceptional data
    from gplab.constructions import certificate

    real = certificate.verify_certificate
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[2:4])
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("gplab") and getattr(module, "verify_certificate", None) is real:
            monkeypatch.setattr(module, "verify_certificate", counted)
    assert run(argv + ["--jobs", "1", "--out", str(tmp_path / "out.txt")]) == 0
    assert len(calls) == scans, calls


@pytest.mark.parametrize("a, b", [(1, 1), (2, -1), (0, 1)])
def test_cubic_build_confirms_nothing_and_compiles_once(monkeypatch, a, b):
    # the build measures its plateau on the one program h^2 g and scans
    # nothing: gp cert's scan sets the extra-orbit flag
    from gplab.constructions import Certificate, cubic_pisot_set
    from gplab.gpexpr import evaluate

    calls = []

    def spy(name, real):
        def counted(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return counted

    real = evaluate.eval_indicator
    for name, module in list(sys.modules.items()):
        if name.startswith("gplab") and getattr(module, "eval_indicator", None) is real:
            monkeypatch.setattr(module, "eval_indicator", spy("eval_indicator", real))
    monkeypatch.setattr(Certificate, "members", spy("members", Certificate.members))
    monkeypatch.setattr(evaluate.Program, "__init__", spy("compile", evaluate.Program.__init__))
    cubic_pisot_set(a, b)
    assert calls == ["compile"]


@pytest.mark.parametrize("command", [["verify", "--to", "3000"], ["density", "--N", "3000"]])
@pytest.mark.parametrize(
    "params",
    [
        ["--construction", "fibonacci"],
        ["--construction", "quadratic", "--a", "3", "--norm", "1"],
        ["--construction", "quadratic-filter", "--a", "4"],
        ["--construction", "cubic", "--a", "1", "--b", "1"],
    ],
)
def test_maxprec_reaches_every_confirmation(tmp_path, monkeypatch, command, params):
    # every point a scan confirms is decided within the command's budget,
    # the construction's build included
    from gplab.constructions import Certificate

    seen = []
    members_in = Certificate.members_in

    def spy(self, points, max_bits=None):
        seen.append(max_bits)
        if max_bits is None:
            return members_in(self, points)
        return members_in(self, points, max_bits)

    monkeypatch.setattr(Certificate, "members_in", spy)
    argv = command[:1] + params + command[1:] + ["--maxprec", "512"]
    assert run(argv + ["--out", str(tmp_path / "out.txt")]) == 0
    assert seen and set(seen) == {512}


def test_maxprec_reaches_the_ap_search_confirmations(tmp_path, monkeypatch):
    # the progression is confirmed within the budget and re-verified at
    # twice it, never at the default precision
    from gplab.constructions import Certificate

    seen = []
    members_in = Certificate.members_in

    def spy(self, points, max_bits=None):
        seen.append(max_bits)
        if max_bits is None:
            return members_in(self, points)
        return members_in(self, points, max_bits)

    monkeypatch.setattr(Certificate, "members_in", spy)
    argv = ["ipsearch", "--mode", "ap", "--r", "3", "--maxprec", "512"]
    assert run(argv + ["--out", str(tmp_path / "out.txt")]) == 0
    assert seen and all(bits is not None and bits <= 2 * 512 for bits in seen), seen


def test_huge_indicator_value_is_a_typed_error(tmp_path, capsys):
    # 2^100000 has more digits than Python prints: the message gives its size
    assert run(["members", "--expr", "2^100000", "--from", "1", "--to", "1",
                "--out", str(tmp_path / "m.csv")]) == 2
    assert "100001-bit integer" in capsys.readouterr().err


def test_constant_past_the_size_cap_is_a_parse_error(tmp_path, capsys):
    from gplab.gpexpr.evaluate import MAX_CONST_BITS

    k = MAX_CONST_BITS // 2 + 1
    for expr in (f"n/2^{k}", f"n + 2^{k}"):
        assert run(["members", "--expr", expr, "--from", "1", "--to", "1",
                    "--out", str(tmp_path / "m.csv")]) == 2
        assert "cap on folded constants" in capsys.readouterr().err


def test_eval_past_the_float_range(tmp_path, capsys):
    # the float column overflows to inf; the exact bounds still print
    out = tmp_path / "e.csv"
    assert run(["eval", "--expr", "2^2000", "--from", "0", "--to", "0", "--out", str(out)]) == 0
    row = out.read_text().splitlines()[1].split(",")
    assert row[:2] == ["0", "inf"] and row[2] == f"{2**2000}/1"
    # bounds too long to print end in a typed error, not a traceback
    assert run(["eval", "--expr", "2^100000", "--from", "0", "--to", "0", "--out", str(out)]) == 2
    assert "too long to print" in capsys.readouterr().err


def test_cf_command_output(tmp_path):
    out = tmp_path / "cf.csv"
    assert run(["cf", "--expr", "let t = root(x^2-4*x+1, 3, 4); t", "--count", "6",
                "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# continued fraction: [3; (1,2)*]")


def test_cf_past_the_print_limit_exits_2(tmp_path, capsys):
    # convergents longer than Python prints end in one typed line, not a
    # traceback: at the lowest limit, 640 digits, sqrt2's q_2000 has 766
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code = run(["cf", "--expr", "let s = root(x^2-2,1,2); s", "--count", "2000",
                    "--out", str(tmp_path / "cf.csv")])
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 2
    err = capsys.readouterr().err
    assert "too long to print" in err and len(err.splitlines()) == 1
    assert not (tmp_path / "cf.csv").exists()


def test_suite_quick(tmp_path, capsys):
    out = tmp_path / "suite.txt"
    assert run(["suite", "quick", "--out", str(out)]) == 0
    text = out.read_text()
    assert "checks passed" in text and "FAIL" not in text


def test_heis_equidist_csv(tmp_path):
    out = tmp_path / "eq.csv"
    assert run(["heis", "--mode", "equidist", "--to", "2000", "--grid", "2",
                "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "box_index,count,volume,deviation"
    assert len(lines) == 2 + 8  # header + 8 boxes + discrepancy comment
    assert lines[-1].startswith("# max_discrepancy:")
    counts = [int(l.split(",")[1]) for l in lines[1:9]]
    assert sum(counts) == 2000


def test_exit_code_deeply_nested_expression(capsys):
    text = "floor(" * 300 + "n" + ")" * 300
    assert run(["members", "--expr", text, "--from", "1", "--to", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "nested deeper" in err


# sha256 of the certificate files, unchanged since the constructions moved
# into one registry, except where the printer began to put a right operand
# of equal precedence in parentheses (quadratic and both cubics)
CERT_SHA256 = {
    "fibonacci": "277de3cdffe8e1d3ecd54e5d6837724d7f423a396260d1bd404d84251d85ad74",
    "quadratic": "3841b7c68d6b36d1b32248b5c519aedf3373f91a13e53f864cda1555ff50762d",
    "quadratic-filter": "1372126b22daaad75a7631baccfac20a21a37907ff081165abed2d9d15d0f908",
    "cubic": "312b7deb6cb8d622a41e65898a36e089d9b8a4b9406a1815228ea97848af75ec",
    "verysparse": "1091a1f1a4f0fa2a9516c147e6deea6c69356b6c68a8ce2abb9d97079e877c41",
    # the certificate flagged plateau_shared_by_extra_orbit, pinned while the
    # cubic build still scanned for the flag, before gp cert's scan set it
    "cubic a=2 b=-1": "d0a8d9288eb7fd103a8fc7d081812e3b66955a7e058176c62dae37f935cdf7fe",
}

# sha256 of artifacts whose decisions go through certificate scans
# (unchanged since scans confirm with the compiled indicator) or through the
# fixed-point screens of the record and growth scans (unchanged since every
# point was decided exactly)
SCAN_SHA256 = {
    "verify": "682e5745828913e2b80bf83e0b27c4dda5f3be4b6125c95a36262e9214a17975",
    "density": "9d9b6937c07ac01903b1ede295a4772b2b393392c4810963360472994f525115",
    "ipsearch": "0e3f43973b177a0f95e223cd6d5e5348e241af86a8d35af652f393de1685834e",
    "ipsearch-ap": "680e09d5e006aee40e3752cf366295fadd603582f1576959c0fc16abdc1fbbc5",
    "ipsearch-translated": "3a9910c7b6a1c5ee26f45626e4499f981219ea8208bb96f37424b82a87e47788",
    "heis-growth": "32a1f6019ad3e22acbf50fde7527357df1880674bbaba6bac5ad4f190e01c0f8",
    "heis-equidist": "91825aaa7a5bb3c1a04addcc6823ee184649d3d0a4712870ff3a1725d9493979",
    "bestapprox-2d": "eca189754094ebea23054c70a886eb65a0c05671304620dc79c63d0c6ea09023",
    "bestapprox-1d": "9382282b155fd92779a79e4aec09adbc9809b20b1a707e7002e7ab70b03da4ae",
    # computed with the float half-over-n scan, before the continued-fraction one
    "verify-quadratic-1e7": "7a71dfd90abee80bfa8fdb8d72abb0aeff9de92c066680f850ea26780ab4cdd4",
    "verify-quadratic-filter-1e7": "5bcf38db6efcd9c5ae145b0a328762d4c3e5aaaa89a70c39181fffed982f6b86",
    "density-pell-1e7": "e1bf77303f8140a22011c2e6267d9e3ba499a76aa39a0cac0cbbbccf7e1dd4ce",
    # the README expression near F_75, on dyadic mode's 192-bit precision;
    # computed with the stack-machine evaluator, before the generated functions
    "members-readme-2e15": "63a7c711c5ac6eb0f2f838aedf53198879aeacd484b87f02995fb2860343839e",
}


def test_artifacts_are_byte_identical(tmp_path):
    commands = {
        "ipsearch": ["ipsearch", "--mode", "ipr", "--r", "3"],
        "ipsearch-ap": ["ipsearch", "--mode", "ap", "--r", "5"],
        "ipsearch-translated": ["ipsearch", "--mode", "translated", "--r", "2",
                                "--shifts", "0,1,2"],
        "suite": ["suite", "quick"],
        "members": ["members", "--expr", "floor(1 - frac(theta*n/7))", "--from", "1",
                    "--to", "60"],
        "members-readme-2e15": ["members", "--expr", "let phi = root(x^2-x-1, 1, 2); "
                                "floor(1 - frac(theta*floor(2*n*(n*phi - floor(n*phi)))))",
                                "--from", "2111485077977950", "--to", "2111485077978150"],
        "verify": ["verify", "--construction", "fibonacci", "--to", "2000"],
        "density": ["density", "--construction", "cubic", "--N", "100000"],
        "verify-quadratic-1e7": ["verify", "--construction", "quadratic", "--a", "3",
                                 "--norm", "1", "--to", "10000000"],
        "verify-quadratic-filter-1e7": ["verify", "--construction", "quadratic-filter",
                                        "--a", "4", "--to", "10000000"],
        "density-pell-1e7": ["density", "--construction", "fibonacci", "--a", "2",
                             "--N", "10000000"],
        "cert-fibonacci": ["cert", "--construction", "fibonacci"],
        "cert-quadratic": ["cert", "--construction", "quadratic", "--a", "3", "--norm", "1"],
        "cert-quadratic-filter": ["cert", "--construction", "quadratic-filter", "--a", "4"],
        "cert-cubic": ["cert", "--construction", "cubic"],
        "cert-cubic a=2 b=-1": ["cert", "--construction", "cubic", "--a", "2", "--b", "-1"],
        "cert-verysparse": ["cert", "--construction", "verysparse"],
        "heis-growth": ["heis", "--mode", "growth", "--c", "9/20", "--ladder", "1000,10000"],
        "heis-equidist": ["heis", "--mode", "equidist", "--to", "20000", "--grid", "4"],
        "bestapprox-2d": ["bestapprox", "--cubic-a", "1", "--cubic-b", "1", "--Q", "2000"],
        "bestapprox-1d": ["bestapprox", "--expr", "let s = root(x^2-2, 1, 2); s", "--Q", "5000"],
    }
    for name, argv in commands.items():
        outs = []
        for i in range(2):
            out = tmp_path / f"{name}{i}.txt"
            assert run(argv + ["--jobs", "1", "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1], name
        digest = hashlib.sha256(outs[0]).hexdigest()
        if name.startswith("cert-"):
            assert digest == CERT_SHA256[name[5:]], name
        elif name in SCAN_SHA256:
            assert digest == SCAN_SHA256[name], name


def test_parser_is_built_once_and_keeps_no_state(tmp_path, monkeypatch):
    # main builds the parser once per process; a call after one with other
    # options writes what it writes after a fresh parser
    import gplab.cli as cli

    built = [0]
    real = cli.build_parser

    def counted():
        built[0] += 1
        return real()

    monkeypatch.setattr(cli, "build_parser", counted)
    ip = ["ipsearch", "--mode", "translated", "--r", "2", "--bound", "200", "--jobs", "1"]
    mem = ["members", "--expr", "floor(1 - frac(theta*n))", "--from", "-3", "--to", "5"]
    calls = [ip + ["--shifts", "3,1"], ip, mem + ["--format", "json"], mem]

    def artifact(argv):
        out = tmp_path / "out"
        assert cli.main(argv + ["--out", str(out)]) == 0
        return out.read_bytes()

    separate = []
    for argv in calls:
        cli._parser.cache_clear()
        separate.append(artifact(argv))
    assert built[0] == len(calls)
    cli._parser.cache_clear()
    built[0] = 0
    assert [artifact(argv) for argv in calls] == separate
    assert built[0] == 1
    assert separate[0] != separate[1] and separate[2] != separate[3]
