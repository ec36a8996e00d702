import csv
import io
import json
import os
import signal
import subprocess
import sys

import concurrent.futures

import pytest

from coinv import basis, cli, oracle, smirnov, verify
from coinv.basis import BasisElement
from coinv.cli import EXIT_CLOSED_PIPE, main

from golden import BIJECTION_TABLES


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_hilbert_text(capsys):
    code, out, _ = run_cli(capsys, "hilbert", "--n", "2", "--variant", "a12", "--format", "text")
    assert code == 0
    assert out.strip() == "q + u + v + 1"


def test_hilbert_json(capsys):
    code, out, _ = run_cli(capsys, "hilbert", "--n", "1", "--format", "json")
    assert code == 0
    assert json.loads(out) == [{"q": 0, "u": 0, "v": 0, "coeff": "1"}]


def test_basis_listing(capsys):
    code, out, _ = run_cli(capsys, "basis", "--n", "2", "--variant", "a12")
    assert code == 0
    assert out.split() == ["1", "x2", "th2", "xi2"]
    code, out, _ = run_cli(capsys, "basis", "--n", "1", "--variant", "b12", "--format", "json")
    assert code == 0
    assert json.loads(out) == [
        {"alpha": [0], "theta": [0], "xi": [0]},
        {"alpha": [1], "theta": [0], "xi": [0]},
        {"alpha": [0], "theta": [1], "xi": [0]},
        {"alpha": [0], "theta": [0], "xi": [1]},
    ]


def test_bijection_csv_matches_tables(capsys):
    for n, rows in BIJECTION_TABLES.items():
        code, out, _ = run_cli(capsys, "bijection", "--n", str(n), "--format", "csv")
        assert code == 0
        reader = csv.reader(io.StringIO(out))
        header = next(reader)
        assert header == ["sigma", "basis_element", "k", "l", "sminv", "split"]
        got = [(r[0], r[1], int(r[2]), int(r[3]), int(r[4]), r[5]) for r in reader]
        assert got == rows


def reference_bijection_rows(n):
    """The table built element by element: psi and every statistic per element."""
    rows = []
    for b in basis.enumerate_basis(n, "a12"):
        word = smirnov.psi(b)
        k, l = smirnov.ascent_descent_counts(word)
        split = smirnov.split_positions(word)
        mask = 0
        for s in word.splits:
            mask |= 1 << (s - 1)
        rows.append(
            (
                smirnov.format_word(word),
                b.monomial_str(),
                k,
                l,
                smirnov.sminv(word),
                "{%s}" % ",".join(str(s) for s in split),
                mask,
                word.letters,
            )
        )
    rows.sort(key=lambda r: (r[6], r[7]))
    return [r[:6] for r in rows]


BIJECTION_HEADER = ("sigma", "basis_element", "k", "l", "sminv", "split")


@pytest.mark.parametrize("n", range(1, 7))
def test_bijection_matches_per_element_reference(capsys, n):
    rows = reference_bijection_rows(n)
    for fmt in ("csv", "json", "text"):
        cli._print_rows(rows, BIJECTION_HEADER, fmt)
        expected = capsys.readouterr().out
        code, out, err = run_cli(capsys, "bijection", "--n", str(n), "--format", fmt)
        assert code == 0 and err == ""
        assert first_difference(out, expected) is None, (n, fmt)


@pytest.mark.parametrize("rows", [
    [],
    [("1", "1", 0, 0, 0, "{}")],
    reference_bijection_rows(4),
    [(d, "q", True, None) for d in range(2 * cli.JSON_SLICE + 1)],
])
def test_json_rows_match_one_dumps_of_the_whole_table(capsys, rows):
    header = ("a", "b", "c", "d", "e", "f")
    cli._print_rows(rows, header, "json")
    expected = json.dumps([dict(zip(header, row)) for row in rows], indent=2) + "\n"
    assert first_difference(capsys.readouterr().out, expected) is None


@pytest.mark.parametrize("variant,n", [(v, n) for v in basis.VARIANTS for n in range(1, 5)])
def test_basis_json_matches_one_dumps_of_the_whole_basis(capsys, variant, n):
    code, out, err = run_cli(capsys, "basis", "--n", str(n), "--variant", variant, "--format", "json")
    assert code == 0 and err == ""
    expected = json.dumps([b.to_json() for b in basis.enumerate_basis(n, variant)], indent=2) + "\n"
    assert first_difference(out, expected) is None


def first_difference(out, expected):
    """None for equal texts, else the first differing line as (number, got, want).

    Tables run to megabytes, which pytest would diff for minutes."""
    if out == expected:
        return None
    got, want = out.splitlines(), expected.splitlines()
    for number, pair in enumerate(zip(got, want)):
        if pair[0] != pair[1]:
            return (number,) + pair
    return (min(len(got), len(want)), got[len(want):len(want) + 1], want[len(got):len(got) + 1])


def test_bijection_never_enumerates(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("the table must not enumerate the basis or call psi")

    monkeypatch.setattr(basis, "enumerate_basis", refuse)
    monkeypatch.setattr(smirnov, "psi", refuse)
    monkeypatch.setattr(BasisElement, "monomial_str", refuse)
    code, out, err = run_cli(capsys, "bijection", "--n", "5", "--format", "csv")
    assert code == 0 and err == ""
    assert len(out.splitlines()) == 1 + 1920


def test_verify_names_lowered_checks_on_stderr(capsys):
    code, out, err = run_cli(capsys, "verify", "--n", "5")
    assert code == 0
    # stdout is exactly the ok lines, whatever n each check ran at
    assert out == "".join("ok   %s\n" % name for name, _ in verify.ALL_CHECKS)
    assert err == (
        "verify: oracle-type-a ran at n=3 (asked 5)\n"
        "verify: oracle-type-b ran at n=2 (asked 5)\n"
        "verify: oracle-exactness ran at n=2 (asked 5)\n"
    )


def test_bijection_byte_stable(capsys):
    code, first, _ = run_cli(capsys, "bijection", "--n", "4", "--format", "csv")
    assert code == 0
    code, second, _ = run_cli(capsys, "bijection", "--n", "4", "--format", "csv")
    assert first == second


def test_frobenius_schur_json(capsys):
    code, out, _ = run_cli(capsys, "frobenius", "--n", "2", "--form", "schur", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 2
    assert [entry["partition"] for entry in data["coeffs"]] == [[1, 1], [2]]


def test_frobenius_latex_order(capsys):
    code, out, _ = run_cli(capsys, "frobenius", "--n", "3", "--form", "schur", "--format", "latex")
    assert code == 0
    assert out.index("s_{1 1 1}") < out.index("s_{2 1}") < out.index("s_{3}")


def test_hook_table(capsys):
    code, out, _ = run_cli(capsys, "hook", "--n", "3", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["d", "k", "l", "enumeration", "q_binomial_form", "equal"]
    assert all(r[5] == "True" for r in rows[1:])


def test_hmu(capsys):
    code, out, _ = run_cli(capsys, "hmu", "--n", "3", "--mu", "3", "--k", "0", "--l", "0", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[1] == ["0", "0", "1"]


def test_hmu_rejects_bad_mu(capsys):
    code, _, err = run_cli(capsys, "hmu", "--n", "3", "--mu", "2,2")
    assert code == 2
    assert "partition of n" in err


def test_invalid_n(capsys):
    code, _, err = run_cli(capsys, "hilbert", "--n", "0")
    assert code == 2
    assert err


def test_invalid_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["hilbert", "--n", "2", "--variant", "zz"])
    assert exc.value.code == 2


def test_verify_small(capsys):
    code, out, err = run_cli(capsys, "verify", "--n", "2")
    assert code == 0
    assert "FAIL" not in out
    assert "ok" in out
    assert err == ""


def test_oracle_cli(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--n", "2", "--variant", "a12", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["complete"] is True
    assert {tuple(d for d in row["degree"]): row["quotient"] for row in data["pieces"]}[(0, 0, 0)] == 1


def test_oracle_long_guard(capsys):
    code, _, err = run_cli(capsys, "oracle", "--n", "4", "--variant", "a12")
    assert code == 2
    assert "--long" in err


def test_oracle_type_b_n3_needs_no_long(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--n", "3", "--variant", "b12")
    assert code == 0
    assert "complete: True" in out
    code, _, err = run_cli(capsys, "oracle", "--n", "4", "--variant", "b12")
    assert code == 2
    assert "--long" in err


@pytest.mark.parametrize("variant", ["a11", "a02", "b11"])
def test_oracle_rejects_sub_variants(capsys, variant):
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--n", "2", "--variant", variant])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-1", "3", "1000000"])
def test_oracle_jobs_out_of_range_exits_2_before_any_work(capsys, monkeypatch, jobs):
    def no_workers(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    def no_work(*args, **kwargs):
        raise AssertionError("the oracle ran")

    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_workers)
    monkeypatch.setattr(oracle, "hilbert_via_oracle", no_work)
    code, out, err = run_cli(capsys, "oracle", "--n", "2", "--jobs", jobs)
    assert code == 2
    assert out == ""
    assert "--jobs must be between 1 and the 2 CPUs" in err


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_oracle_over_the_cap_exits_2_before_any_piece(capsys, monkeypatch, jobs):
    def no_work(*args, **kwargs):
        raise AssertionError("a piece was eliminated or a worker pool was started")

    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_work)
    monkeypatch.setattr(oracle, "_ideal_rank", no_work)
    code, out, err = run_cli(capsys, "oracle", "--n", "5", "--variant", "a12", "--long", "--jobs", jobs)
    assert code == 2
    assert out == ""
    assert err == "graded piece (9, 2, 2) has 71500 monomials, over the cap 50000\n"


def test_oracle_negative_max_x_degree_exits_2_before_any_piece(capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("a piece was eliminated")

    monkeypatch.setattr(oracle, "_ideal_rank", no_work)
    code, out, err = run_cli(capsys, "oracle", "--n", "2", "--max-x-degree", "-1")
    assert code == 2
    assert out == ""
    assert "max_x_degree must be at least 0" in err


@pytest.mark.parametrize("command", ["basis", "hilbert", "frobenius", "bijection", "hook", "hmu", "verify"])
def test_jobs_is_only_an_oracle_option(command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--n", "2", "--jobs", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv,count", [
    (("basis", "--n", "9"), 92897280),
    (("basis", "--n", "9", "--variant", "a12", "--format", "json"), 92897280),
    (("basis", "--n", "7", "--variant", "b12"), 82575360),
    (("bijection", "--n", "9"), 92897280),
    (("basis", "--n", "40", "--variant", "b11"), 197613377),
])
def test_oversized_listing_exits_2_before_enumerating(capsys, monkeypatch, argv, count):
    def no_enumeration(*args, **kwargs):
        raise AssertionError("the basis was enumerated")

    monkeypatch.setattr(basis, "enumerate_basis", no_enumeration)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "has %d elements" % count in err
    assert "over the listing cap of %d" % cli.MAX_ENUMERATED in err


def test_listing_cap_admits_a12_n8():
    assert basis.count_basis(8, "a12") <= cli.MAX_ENUMERATED < basis.count_basis(7, "b12")


@pytest.mark.parametrize("argv", [
    ("frobenius", "--n", "3", "--k", "5"),
    ("frobenius", "--n", "3", "--l", "-1"),
    ("frobenius", "--n", "3", "--k", "1", "--l", "2"),
    ("hmu", "--n", "3", "--mu", "2,1", "--k", "7"),
    ("hook", "--n", "3", "--k", "3"),
])
def test_out_of_range_k_l_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "k + l < n=3" in err


def test_closed_stdout_exits_quietly():
    # The reader closes its end before anything is written, as `| head`
    # does once it has its lines; the write then fails with EPIPE.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.Popen(
        [sys.executable, "-m", "coinv.cli", "verify", "--n", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()
    try:
        err = proc.stderr.read()
        proc.wait(timeout=60)
    finally:
        proc.stderr.close()
        if proc.poll() is None:
            proc.kill()
    assert proc.returncode == 128 + signal.SIGPIPE == EXIT_CLOSED_PIPE
    assert b"Traceback" not in err and b"BrokenPipeError" not in err, err
