import csv
import hashlib
import io
import json
import os
import re
import signal
import subprocess
import sys
from math import factorial

import pytest

from coinv import basis, cli, oracle, smirnov, verify
from coinv.basis import BasisElement
from coinv.cli import EXIT_CLOSED_PIPE, main
from coinv.qpoly import QuvPolynomial

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


def whole_sort_rows(n):
    """The table as psi_table's entries sorted whole, by bar mask and then
    by letters, and then relabelled into output rows."""
    return [(sigma, monomial, k, l, inv, "{%s}" % ",".join(map(str, split)))
            for _, _, sigma, monomial, k, l, inv, split in sorted(smirnov.psi_table(n))]


@pytest.mark.parametrize("n", range(1, 7))
def test_grouped_rows_match_the_whole_sort(n):
    # each bar mask's group is sorted by sigma, not by letters
    assert list(cli.bijection_rows(n)) == whole_sort_rows(n)


@pytest.mark.parametrize("n", range(1, 8))
def test_text_widths_fixed_before_the_first_row_are_the_widest_cells(n):
    rows = list(cli.bijection_rows(n))
    measured = tuple(max(len(str(h)), max(len(str(r[i])) for r in rows)) for i, h in enumerate(BIJECTION_HEADER))
    assert cli.bijection_widths(n) == measured


def test_the_first_rows_of_n8_build_no_table_larger_than_n7(monkeypatch):
    """The rows of size 8 grow one bar mask's group at a time from the
    table of size 7; no call builds the table of size 8."""
    sizes = []
    walk = smirnov.psi_table

    def recorded(n):
        sizes.append(n)
        return walk(n)

    monkeypatch.setattr(smirnov, "psi_table", recorded)
    first = next(iter(cli.bijection_rows(8)))
    assert first[0] == "1 2 3 4 5 6 7 8"
    assert max(sizes) == 7


def test_bijection_rows_refuse_n_outside_1_to_9(monkeypatch):
    # sigma's string order is the letters' order only for one-digit letters
    def refuse(n):
        raise AssertionError("n=%d must be refused before psi_table runs" % n)

    monkeypatch.setattr(smirnov, "psi_table", refuse)
    for n in (0, 10):
        with pytest.raises(ValueError, match="needs 1 <= n <= 9, not n=%d" % n):
            cli.bijection_rows(n)


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


def test_json_rows_escape_keys_and_cells_as_dumps_does(capsys):
    # a % in a key must come out as itself
    header = ('say "%s"', "caf\u00e9", "%", "back\\slash\n", "d")
    rows = [('"%d" \\ %%', "\u00e9\u2603\U0001f600", -7, False, None), ("\t", "", 10**30, True, None)]
    cli._print_rows(rows, header, "json")
    expected = json.dumps([dict(zip(header, row)) for row in rows], indent=2) + "\n"
    assert first_difference(capsys.readouterr().out, expected) is None


@pytest.mark.parametrize("variant,n", [(v, n) for v in basis.VARIANTS for n in range(1, 5)])
def test_basis_json_matches_one_dumps_of_the_whole_basis(capsys, variant, n):
    code, out, err = run_cli(capsys, "basis", "--n", str(n), "--variant", variant, "--format", "json")
    assert code == 0 and err == ""
    expected = json.dumps([b.to_json() for b in basis.enumerate_basis(n, variant)], indent=2) + "\n"
    assert first_difference(out, expected) is None


@pytest.mark.parametrize("count", [0, 1, cli.JSON_SLICE, 2 * cli.JSON_SLICE + 1])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_rows_stream_from_a_generator(capsys, count, fmt):
    rows = [(d, "q,r", d % 3 == 0, None) for d in range(count)]
    header = ("a", "b", "c", "d")
    cli._print_rows(rows, header, fmt)
    expected = capsys.readouterr().out
    cli._print_rows((row for row in rows), header, fmt)
    assert capsys.readouterr().out == expected


def test_text_widths_hold_no_copy_of_a_column(monkeypatch):
    """Each column width is a max over a generator; unpacking a column into
    max's arguments built an 800 KB tuple per column of 100,000 rows."""
    import tracemalloc

    rows = [(d, "x%d" % d, d % 7 == 0) for d in range(100_000)]
    with open(os.devnull, "w") as devnull:
        monkeypatch.setattr(sys, "stdout", devnull)
        tracemalloc.start()
        try:
            cli._print_rows(rows, ("d", "name", "seventh"), "text")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < 400 * 1024, peak


@pytest.mark.parametrize("fmt", ["csv", "json", "text"])
def test_basis_streams_without_building_the_list(capsys, monkeypatch, fmt):
    expected = run_cli(capsys, "basis", "--n", "4", "--format", fmt)

    def refuse(*args):
        raise AssertionError("the listing must stream iter_basis")

    monkeypatch.setattr(basis, "enumerate_basis", refuse)
    assert run_cli(capsys, "basis", "--n", "4", "--format", fmt) == expected


@pytest.mark.skipif(
    not os.environ.get("COINV_LONG"),
    reason="n=7 bijection table; set COINV_LONG=1 (about 5 s)",
)
def test_bijection_n7_csv_is_pinned(capsys):
    code, out, err = run_cli(capsys, "bijection", "--n", "7", "--format", "csv")
    assert code == 0 and err == ""
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "67679de4f35e2fc69262e29e437cb8927fdecea364215c288b71ffec01fd1ab1"


@pytest.mark.parametrize("fmt, digest", [
    pytest.param("json", "dea043ead55a3aba2003b08f3f3b306257518f115df3305f863e2914032278e5", id="json"),
    pytest.param("text", "1fdbddaf9f51e057a96a03473bb25271ccc8e6750515c4f0f151e809ae02d4e5", id="text"),
])
def test_bijection_n7_json_and_text_are_pinned(capsys, fmt, digest):
    # the output of the build that held every row of size 7 to sort it
    code, out, err = run_cli(capsys, "bijection", "--n", "7", "--format", fmt)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# Runs coinv as `python -m coinv.cli` does, and at exit writes its peak
# resident set in kB to the file named by its first argument, or nothing
# where there is no /proc/self/status.  The peak is the larger of the
# process's own (VmHWM) and that of its largest reaped child, so it covers
# verify's workers: they are forked, not started afresh, and each counts the
# pages it shares with the process.  The process's ru_maxrss, as os.wait4
# returns it, will not do: on Linux it also counts the resident set of the
# process that spawned it.
PEAK_PROBE = """\
import atexit, os, resource, runpy, sys

def record(path=sys.argv.pop(1)):
    if not os.path.exists("/proc/self/status"):
        return
    with open("/proc/self/status") as status:
        peak = int(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
    peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    with open(path, "w") as out:
        out.write(str(peak))

atexit.register(record)
runpy.run_module("coinv.cli", run_name="__main__", alter_sys=True)
"""


def limit_address_space():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def stream_child(tmp_path, consume, *argv, timeout=120):
    """Run `coinv argv` in a child process under a 1 GiB address space and
    hand its stdout, a binary pipe, to consume as it is written.

    Returns its exit code, what consume returned, its stderr text, its own
    peak resident set in kB (None without /proc/self/status) and its own
    CPU seconds, which a busy machine does not stretch as it does wall
    time.  The child is killed when consume raises, and after timeout
    seconds, which raise subprocess.TimeoutExpired."""
    import resource
    import threading

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    err_path, peak_path = tmp_path / "err", tmp_path / "peak"
    peak_path.unlink(missing_ok=True)
    command = [sys.executable, "-c", PEAK_PROBE, str(peak_path), *argv]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    with open(err_path, "wb") as err:
        proc = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=err, env=env, preexec_fn=limit_address_space)
    expired = threading.Event()

    def expire():
        expired.set()
        proc.kill()

    timer = threading.Timer(timeout, expire)
    timer.start()
    try:
        with proc.stdout:
            result = consume(proc.stdout)
    except BaseException:
        proc.kill()
        raise
    finally:
        proc.wait()
        timer.cancel()
    if expired.is_set():
        raise subprocess.TimeoutExpired(command, timeout)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    peak = int(peak_path.read_text()) if peak_path.exists() else None
    cpu = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
    return proc.returncode, result, err_path.read_text(), peak, cpu


def spawn_child(tmp_path, *argv, timeout=120):
    """stream_child, with the child's stdout copied to a file, whose path
    takes the place of consume's result."""
    import shutil

    out_path = tmp_path / "out"

    def to_file(stdout):
        with open(out_path, "wb") as out:
            shutil.copyfileobj(stdout, out, 1 << 20)
        return out_path

    return stream_child(tmp_path, to_file, *argv, timeout=timeout)


def run_child(tmp_path, *argv, timeout=120):
    """spawn_child, with the child's stdout read back as bytes."""
    code, out_path, err, peak, cpu = spawn_child(tmp_path, *argv, timeout=timeout)
    return code, out_path.read_bytes(), err, peak, cpu


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")
def test_measured_peak_is_the_childs_own(tmp_path):
    """A large buffer held by the test process does not reach the reading."""
    code, out, _, plain, _ = run_child(tmp_path, "hilbert", "--n", "2")
    assert code == 0 and out
    ballast = b"\1" * (64 << 20)  # every page written, so all of it resident
    code, _, _, held, _ = run_child(tmp_path, "hilbert", "--n", "2")
    del ballast
    assert code == 0
    assert abs(held - plain) < 16 * 1024, (plain, held)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")
def test_bijection_n7_csv_output_and_peak_memory(tmp_path):
    returncode, out, err, peak, _ = run_child(tmp_path, "bijection", "--n", "7", "--format", "csv")
    assert (returncode, err) == (0, "")
    digest = hashlib.sha256(out).hexdigest()
    assert digest == "67679de4f35e2fc69262e29e437cb8927fdecea364215c288b71ffec01fd1ab1"
    # the peak is in kB; the run takes about 26 MB with the table of size 6
    # held and one bar mask's group of 5040 rows grown at a time, and took
    # about 95 MB while every row of size 7 was held to be sorted
    assert peak < 40 * 1024, peak


@pytest.mark.skipif(
    not os.environ.get("COINV_LONG"),
    reason="verify --n 7 in a subprocess; set COINV_LONG=1 (about 6 s)",
)
def test_verify_n7_output_and_peak_memory(tmp_path):
    returncode, out, err, peak, _ = run_child(tmp_path, "verify", "--n", "7")
    assert returncode == 0
    # the same 26 ok lines as verify --n 5
    digest = hashlib.sha256(out).hexdigest()
    assert digest == "0f27944aa2233c51b04313041e6a0647a481a15b481e8a59361996f870411897"
    assert err == "".join(
        "verify: %s ran at n=%d (asked 7)\n" % (name, limit) for name, _, limit in verify.CHECKS if limit < 7
    )
    assert "verify: specializations ran" not in err
    # the peak is in kB; the run took about 70 MB while specializations
    # compared element lists
    assert peak < 40 * 1024, peak


@pytest.mark.skipif(
    not os.environ.get("COINV_LONG"),
    reason="verify --n 8 in a subprocess; set COINV_LONG=1 (about 11 s)",
)
def test_verify_n8_output_and_peak_memory(tmp_path):
    returncode, out, err, peak, _ = run_child(tmp_path, "verify", "--n", "8", timeout=300)
    assert returncode == 0
    # the same 26 ok lines as verify --n 5
    digest = hashlib.sha256(out).hexdigest()
    assert digest == "0f27944aa2233c51b04313041e6a0647a481a15b481e8a59361996f870411897"
    assert err == "".join(
        "verify: %s ran at n=%d (asked 8)\n" % (name, limit) for name, _, limit in verify.CHECKS if limit < 8
    )
    # the peak is in kB; the run takes about 80 MB, and symmetry-witness
    # took it to about 390 MB while every piece's monomial expansion was kept
    assert peak < 100 * 1024, peak


@pytest.mark.skipif(
    not os.environ.get("COINV_LONG"),
    reason="serial n=4 oracle in a subprocess; set COINV_LONG=1 (about 6 s)",
)
def test_oracle_n4_output_and_peak_memory(tmp_path):
    returncode, out, err, peak, _ = run_child(tmp_path, "oracle", "--n", "4", "--variant", "a12", "--long")
    assert returncode == 0 and err == ""
    digest = hashlib.sha256(out).hexdigest()
    assert digest == "b9f60bdeb4add193a47f3c6b80176cab4f307a5f77465b67f1652deaedd4ec82"
    # the peak is in kB; the run took about 28 MB when the monomial codes
    # went through SuperMonomial lists, and takes about 36 MB with the
    # echelon's fully reduced rows
    assert peak < 40 * 1024, peak


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


def test_verify_stops_at_the_first_failure(capsys, monkeypatch):
    names = [name for name, _ in verify.ALL_CHECKS]
    failing = names.index("cardinality-a")

    def later(n):
        raise AssertionError("a check after the failure ran")

    monkeypatch.setattr(verify, "ALL_CHECKS", [
        (name, check if at <= failing else later) for at, (name, check) in enumerate(verify.ALL_CHECKS)
    ])
    monkeypatch.setattr(basis, "count_basis", lambda n, variant: 0)
    code, out, err = run_cli(capsys, "verify", "--n", "2")
    assert (code, err) == (1, "")
    assert out.splitlines() == ["ok   %s" % name for name in names[:failing]] + [
        "FAIL cardinality-a: a12 cardinality wrong at n=1"
    ]


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


# sha256 of the stdout of the (k, l) tables, recorded before hook and hmu
# shared one pair loop.
KL_TABLE_SHA256 = {
    ("hook --n 5", "text", ""): "1cfea2ee9fed8c4fafcae39b21b8662c6f6450bd842e95dfa28b5a3e7182ff07",
    ("hook --n 5", "csv", ""): "acfbe59fb540d772309364acf2176bb3d03c1cf5db2a61dfc10f0548a6f45bfc",
    ("hook --n 5", "json", ""): "321a4e6b04d028f4aecda59fe1f093a2d433e39a4a2dffc405272c70accd88b8",
    ("hook --n 5", "text", "--k 1"): "4eef1c2b7505f7910706423ee683b4ca0d62cde1127c649611d2e977a6797b7a",
    ("hook --n 5", "csv", "--k 1"): "42db9a416e93705fe22b34b9ede3b171983c1d6f0d4ff2d028bfefd17a272f98",
    ("hook --n 5", "json", "--k 1"): "68a71127fcd7f6ccc33375dd5ca1457e211166daea6dd91c5aa689c06ca4034e",
    ("hook --n 5", "text", "--l 2"): "1eb3ab56520791e72abd6f3e1dddf604ac0c3614abe05d541f278e0d268132b6",
    ("hook --n 5", "csv", "--l 2"): "64e1df0b1bc3d90650cfdc3919c371d86da1c2930aab6920e9f943e9de97882c",
    ("hook --n 5", "json", "--l 2"): "79e2c2982a118332acfb14f773ece7cdf6bdf2e8df3025e9c4afcfb62c9bea85",
    ("hmu --n 5 --mu 2,2,1", "text", ""): "96a2deb5ea16d2414979334d79d82988b8a5e365eddbeaa4c45877e6efe5e0ce",
    ("hmu --n 5 --mu 2,2,1", "csv", ""): "5904f0dfed1589f2564389be4090a8971df938d88a6f9619e05caae29855ba3d",
    ("hmu --n 5 --mu 2,2,1", "json", ""): "bec923e44f7faa67bdc3ad08b69a9fab30461e7f53f974a37db2cdde72bb820a",
    ("hmu --n 5 --mu 2,2,1", "text", "--k 1"): "28080d308a61b36cdfe135fd8fac692d9f3f64b9d93bb8c08449c5800e5800ef",
    ("hmu --n 5 --mu 2,2,1", "csv", "--k 1"): "7500df020942fab2c2354f3b6cb4381b87d415373e85fbaab2edac3056cac5b6",
    ("hmu --n 5 --mu 2,2,1", "json", "--k 1"): "49cec00a801d4de07b32ae4abc76bc22fdbe14363e922f967f78bc17f3fc9d54",
    ("hmu --n 5 --mu 2,2,1", "text", "--l 2"): "7690ebc66520984837040fca15adea40262d5fc1d36605000a878a4ba5003035",
    ("hmu --n 5 --mu 2,2,1", "csv", "--l 2"): "e1ebfa5aef3a3f4c43a9cbb58ea82cc5c5397d567aa026bb0a23198959150bb6",
    ("hmu --n 5 --mu 2,2,1", "json", "--l 2"): "21d7d5ea1d7ed04a3fd8e5f970c5edea281744edbae222654688104e720745b5",
}


@pytest.mark.parametrize("command,fmt,extra", sorted(KL_TABLE_SHA256))
def test_kl_tables_are_unchanged(capsys, command, fmt, extra):
    code, out, _ = run_cli(capsys, *command.split(), "--format", fmt, *extra.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == KL_TABLE_SHA256[command, fmt, extra]


# sha256 of the stdout of every (command, format) pair that a command
# writes, at n = 3, recorded before each command offered only its own formats.
FORMAT_SHA256 = {
    ("basis --n 3 --variant a12", "text"): "78ef90f62c317a01d60455edb3f66aabef0def6c718205a097ba5d9f05b3e477",
    ("basis --n 3 --variant a12", "json"): "fad5012e269586031f19c69f929bf6bde5e0007f01bb278000030f31af2a4b0e",
    ("basis --n 3 --variant a12", "csv"): "53858c15bd07e729886d567f004828d91d02353f70785b734e768998868079e9",
    ("basis --n 3 --variant a11", "text"): "615a1a17d875c92be5dec5b01f544684ac69b763734e67836a23241ee761d1e7",
    ("basis --n 3 --variant a11", "json"): "bfeb419f497ae9b094458f9e6c3730000487c80f4aa1d81450fe0bd6786960a4",
    ("basis --n 3 --variant a11", "csv"): "d322aa2fc505abe97142f3a72af8211d3baede5a922973dbe0708bfb67a90f12",
    ("basis --n 3 --variant a02", "text"): "309b6dd70b0d208d4f9a6bb46cd70ae433eeeb4fc700c2be3dd89d7df052d63d",
    ("basis --n 3 --variant a02", "json"): "2d509bbdf096bb427dfb2cbb7920a7fae2b4d85701bcc827965237dd708a6f10",
    ("basis --n 3 --variant a02", "csv"): "ec56a91958de3fb2205116e74aff148b62177615aae3c66482a26a04936be88f",
    ("basis --n 3 --variant b12", "text"): "3ed739bfc97bd9be15e10bc349205722dafbc2b53133e26e09e2a027e54d7e85",
    ("basis --n 3 --variant b12", "json"): "c215f0f0b262c473c3a7b2da4cd846b62ddfbd26d94ee98b008f4874bccc0a91",
    ("basis --n 3 --variant b12", "csv"): "be88480cae5d467db2690f1032242ec3a63512924bbfad316773a341340f932f",
    ("basis --n 3 --variant b11", "text"): "674c74a36904d8c4bfbb3ef11e5d510ed0e574799d465deae04eda00655c7c4a",
    ("basis --n 3 --variant b11", "json"): "c5170c81b5de6961570a8f791711c5a13ee6ba15be34f498f7cef9e5bdd23ccd",
    ("basis --n 3 --variant b11", "csv"): "073a9565118134c81490cb3e70345a2220e0736f84dbbf5ecd8b64c26198f0dc",
    ("hilbert --n 3", "text"): "ce171483f69a185c433fe4c7e159a9d903dd34e1449383e81c15b81cb3731fb3",
    ("hilbert --n 3", "json"): "b0ed6f7217eb6be84b5bd50aba02eeedc3b4e46e349fe2c969fba6c541907f21",
    ("hilbert --n 3", "csv"): "8835cec5d0931854ac2e20f102089aeed9afc96191add8903523a4f48eeb35e4",
    ("hilbert --n 3", "latex"): "9aceb5f1f8c146a849f5977e6e7df32d3aae1c87936469acb97ad89f9e6edce0",
    ("frobenius --n 3 --form qsym", "text"): "ce36560c91ca66ae75d8fece05ad230c1d7cb6121b83efe8e102d5ca4f493b51",
    ("frobenius --n 3 --form qsym", "json"): "48f0f905d0f9205b289128846451059cf8ffdc637611ff88ee0a4410385f8941",
    ("frobenius --n 3 --form qsym", "csv"): "66c2ddcef690d32c804127cd449367b6652618b6a019e471a09b7a0d47ddb847",
    ("frobenius --n 3 --form qsym", "latex"): "6210d37c2e455fba6a873e94518b759cc83f9d66ab7974a47809e5857743776a",
    ("frobenius --n 3 --form schur", "text"): "fd54d91ea161415d30b1b66e99950b225b68f705c7d4559ce305efe2c63c3e08",
    ("frobenius --n 3 --form schur", "json"): "723873fb5e47a15196a1e4d6d5b17269a982e7eb12f97f01c13b21548c570b5c",
    ("frobenius --n 3 --form schur", "csv"): "1a727898ac06c3859d3a1faadec4c73f05549f277270a724e5b4170377a7b563",
    ("frobenius --n 3 --form schur", "latex"): "af9b440fd4291f3219b7a49695173573810d802db8a7ce01dad0c30e75edfe26",
    ("bijection --n 3", "text"): "7a18eaee379f406c7c0852232a3646fb846098b93573afd1ad6e1e13d916e537",
    ("bijection --n 3", "json"): "6c5dd037aa15b4de0c34abbfda612fe48d6695fe8f8ec62f40afe3740567f353",
    ("bijection --n 3", "csv"): "ad777d020577e0f295225b6b8ed4ad6283a7052cfa25cd0df8a29adeaa3e1c36",
    ("hook --n 3", "text"): "df2aec249d87ee41dcb7e68319965fab48e7686a7f5921af0537d27d7e134613",
    ("hook --n 3", "json"): "b1321ea4605bcfd4962c554bf0cdc06fd48550cc1fa31170a1dc44dddc408f86",
    ("hook --n 3", "csv"): "7cf1ecdd1c5ba7cbe38374208e74af3a2e3f0ff48a32044f5fda08a08dbb8278",
    ("hmu --n 3 --mu 2,1", "text"): "b1b4a56e296a6f7cdef8f21118c6d02336f0a93171276a409e64af6bb5b823ea",
    ("hmu --n 3 --mu 2,1", "json"): "3a723e77370ff41a0bd506de3175be018826d0f32ebcc09ecfd0b4c34356e442",
    ("hmu --n 3 --mu 2,1", "csv"): "99c20c474409dbd0a695056d256783ef28b5f475308867a8446da522f9b09b6a",
    ("oracle --n 3", "text"): "5664feaf4bdcf9dfda1f5170d89761ba910716e05314b38fe93ee4a493c2bdfa",
    ("oracle --n 3", "json"): "38c75e5bc17457345b08e6a8ccde5d1318ff71afee199404ead8f9b4c19683b1",
}


@pytest.mark.parametrize("command,fmt", sorted(FORMAT_SHA256))
def test_every_written_format_is_unchanged(capsys, command, fmt):
    code, out, _ = run_cli(capsys, *command.split(), "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == FORMAT_SHA256[command, fmt]


@pytest.mark.parametrize("command,fmt", [
    ("basis", "latex"),
    ("bijection", "latex"),
    ("hook", "latex"),
    ("hmu --mu 2,1", "latex"),
    ("oracle", "csv"),
    ("oracle", "latex"),
])
def test_unwritten_format_exits_2(capsys, command, fmt):
    name, *extra = command.split()
    with pytest.raises(SystemExit) as exc:
        main([name, "--n", "3", *extra, "--format", fmt])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid choice: %r" % fmt in captured.err


def test_hmu_rejects_bad_mu(capsys):
    code, _, err = run_cli(capsys, "hmu", "--n", "3", "--mu", "2,2")
    assert code == 2
    assert "partition of n" in err


@pytest.mark.parametrize("mu, reason", [
    (",3", "invalid literal for int() with base 10: ''"),
    ("3,", "invalid literal for int() with base 10: ''"),
    ("2,,1", "invalid literal for int() with base 10: ''"),
    ("1,2", "partition parts must be weakly decreasing: (1, 2)"),
    ("3,0", "partition parts must be positive: (3, 0)"),
])
def test_hmu_refuses_an_empty_or_unordered_part(capsys, mu, reason):
    # an empty field is a missing part: ",3" is not the partition (3)
    code, out, err = run_cli(capsys, "hmu", "--n", "3", "--mu", mu)
    assert (code, out, err) == (2, "", "invalid --mu: %s\n" % reason)


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


def test_oracle_truncated_window_names_the_band(capsys, monkeypatch):
    """A window too short for the quotient exits 1 and says so; the series
    it did compute is checked up to its top x-degree only."""
    code, out, err = run_cli(capsys, "oracle", "--n", "2", "--max-x-degree", "2")
    assert code == 1
    assert out == (
        "Hilbert series: q + u + v + 1\n"
        "complete: False\n"
        "degree (0, 0, 0): ambient 1, ideal rank 0, quotient 1\n"
        "degree (0, 0, 1): ambient 2, ideal rank 1, quotient 1\n"
        "degree (0, 1, 0): ambient 2, ideal rank 1, quotient 1\n"
        "degree (1, 0, 0): ambient 2, ideal rank 1, quotient 1\n"
    )
    assert err == "truncation band is nonzero: x-degrees 1..2 hold (1, 0, 0); raise --max-x-degree\n"
    # the conjecture reaches x-degree 3 at n=3; below it the window agrees
    code, _, err = run_cli(capsys, "oracle", "--n", "3", "--max-x-degree", "2")
    assert code == 1
    assert err.startswith("truncation band is nonzero: x-degrees 1..2 hold (1, 0, 0), ")
    assert "MISMATCH" not in err
    # json names the same band on stderr, and its pieces are the text's
    code, out, err = run_cli(capsys, "oracle", "--n", "2", "--max-x-degree", "2", "--format", "json")
    assert code == 1
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "26f5067944346133efbd439911acfcd25c737f0e3c5e2e7afa0eaf0dde2c7ea5"
    )
    data = json.loads(out)
    assert data["complete"] is False
    assert [tuple(row["degree"]) for row in data["pieces"] if row["quotient"]] == [
        (0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)
    ]
    assert err == "truncation band is nonzero: x-degrees 1..2 hold (1, 0, 0); raise --max-x-degree\n"
    # type B: the conjecture reaches x-degree 9 at n=3, the window stops at
    # 5 with both top x-degrees nonzero, and below them it agrees
    band = ", ".join("(%d, %d, %d)" % degree for degree in [
        (4, 0, 0), (4, 0, 1), (4, 0, 2), (4, 1, 0), (4, 1, 1), (4, 1, 2), (4, 2, 0), (4, 2, 1),
        (5, 0, 0), (5, 0, 1), (5, 0, 2), (5, 1, 0), (5, 1, 1), (5, 2, 0),
    ])
    for fmt, digest in [
        ("text", "7524d782f2a05ce0839f3fc0e7f01fbde67aad0600df4d2d0eb9546b0c3c0793"),
        ("json", "9ef673cce33ebb54f647b2d220bef3c3b918b6d42ae036aa7be710e3a4b16ca1"),
    ]:
        code, out, err = run_cli(capsys, "oracle", "--n", "3", "--variant", "b12", "--max-x-degree", "5",
                                 "--format", fmt)
        assert code == 1
        assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt
        assert err == "truncation band is nonzero: x-degrees 4..5 hold %s; raise --max-x-degree\n" % band
    # a disagreement inside the window is still a mismatch
    monkeypatch.setattr(basis, "hilbert_series", lambda n, variant: QuvPolynomial({(0, 0, 0): 2}))
    code, _, err = run_cli(capsys, "oracle", "--n", "2", "--max-x-degree", "2")
    assert code == 1
    assert err.splitlines() == [
        "truncation band is nonzero: x-degrees 1..2 hold (1, 0, 0); raise --max-x-degree",
        "MISMATCH against the conjectural series: 2",
    ]


@pytest.mark.parametrize("variant", ["a11", "a02", "b11"])
def test_oracle_rejects_sub_variants(capsys, variant):
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--n", "2", "--variant", variant])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_oracle_over_the_cap_exits_2_before_any_piece(capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("a piece was eliminated")

    monkeypatch.setattr(oracle, "_ideal_rank", no_work)
    code, out, err = run_cli(capsys, "oracle", "--n", "5", "--variant", "a12", "--long")
    assert code == 2
    assert out == ""
    assert err == "graded piece (9, 2, 2) has 71500 monomials, over the cap 50000\n"


@pytest.mark.parametrize("n, degree, size", [
    (5, (9, 2, 2), 71500),
    (40, (0, 0, 4), 91390),
    (60, (0, 0, 4), 487635),
    (80, (0, 0, 3), 82160),
    (200, (0, 0, 3), 1313400),
])
def test_oracle_refuses_a_large_n_within_1_gib(tmp_path, n, degree, size):
    """The window is checked against the cap as it is listed, so a large n
    exits 2 at its first over-cap piece, before the rest is built; listing
    the whole window first ran out of memory at n = 80."""
    code, out, err, _, cpu = run_child(tmp_path, "oracle", "--n", str(n), "--long")
    assert (code, out) == (2, b"")
    assert err == "graded piece %r has %d monomials, over the cap 50000\n" % (degree, size)
    assert cpu < 1


def test_oracle_refuses_a_window_of_too_many_pieces_within_1_gib(tmp_path):
    """At n = 1 every piece has one monomial, so the monomial cap never
    refuses; the window's piece count does, as it is listed.  Listing all
    4 * 10^8 pieces ran out of memory."""
    code, out, err, _, cpu = run_child(tmp_path, "oracle", "--n", "1", "--max-x-degree", "100000000")
    assert (code, out) == (2, b"")
    assert err == "the window of x-degrees 0..100000000 has 400000004 graded pieces, over the cap 100000\n"
    assert cpu < 1


@pytest.mark.parametrize("argv, kind, n, need, cap", [
    (("--n", "38"), "A", 38, 977, 750),
    (("--n", "40"), "A", 40, 1313, 750),
    (("--n", "37", "--variant", "a02"), "A", 37, 820, 750),
    (("--n", "32", "--variant", "b12"), "B", 32, 822, 600),
    (("--n", "31", "--variant", "b11"), "B", 31, 672, 600),
])
def test_hilbert_refuses_a_large_n_within_1_gib(tmp_path, argv, kind, n, need, cap):
    """The walk's working set is estimated from its packing before it
    starts; a12 n=37 and 38 and b12 n=31 and 32 ran out of memory under
    1 GiB after 45-105 s."""
    code, out, err, _, cpu = run_child(tmp_path, "hilbert", *argv)
    assert (code, out) == (2, b"")
    assert err == (
        "the type %s series at n=%d would hold about %d MB of packed values, over the cap of %d MB\n"
        % (kind, n, need, cap)
    )
    assert cpu < 1


@pytest.mark.parametrize("variant, kind, cap", [("a12", "A", 750), ("b12", "B", 600)])
def test_hilbert_refuses_a_huge_n_at_once(tmp_path, variant, kind, cap):
    """The walk's bound with one-byte fields needs no n!, so it refuses a
    huge n first; with n! computed first, n = 10^6 took 4.9 s to exit 2."""
    code, out, err, _, cpu = run_child(tmp_path, "hilbert", "--n", "10000000", "--variant", variant)
    assert (code, out) == (2, b"")
    assert re.fullmatch(
        r"the type %s series at n=10000000 would hold at least \d+ MB of packed values, over the cap of %d MB\n"
        % (kind, cap), err
    ), err
    assert cpu < 1


@pytest.mark.skipif(
    not os.environ.get("COINV_LONG"),
    reason="the largest walks under the memory cap, in subprocesses; set COINV_LONG=1 (about 2 minutes)",
)
@pytest.mark.parametrize("argv, digest", [
    (("--n", "36"), "6832af5788c3eee7a0afaaea47db54ecbb7b57d1f0994e94c15c1a7b8a49e214"),
    (("--n", "30", "--variant", "b12"), "0be951f0d25ccb28259d3a313d2df094514269a22d90c2f8eadb0f9c13724f6e"),
])
def test_hilbert_below_the_walk_cap_runs_within_1_gib(tmp_path, argv, digest):
    code, out, err, _, _ = run_child(tmp_path, "hilbert", *argv, timeout=600)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out).hexdigest() == digest


# The first refused n of each ascent walk, with its reason.
ASCENT_REFUSALS = {
    ("frobenius", "--n", "18"):
        "the Schur fold at n=18 would hold about 3080 MB of packed values, over the cap of 3000 MB",
    ("frobenius", "--n", "13", "--form", "qsym", "--k", "1"):
        "the ascent table at n=13 would have up to 29446144 terms, over the cap of 15000000",
    ("hmu", "--n", "25", "--mu", "25"):
        "the ascent sum at n=25 would hold about 3703 MB of packed values, over the cap of 3000 MB",
    ("hook", "--n", "25"):
        "the ascent sum at n=25 would hold about 3703 MB of packed values, over the cap of 3000 MB",
}


@pytest.mark.parametrize("argv", list(ASCENT_REFUSALS))
def test_ascent_table_commands_refuse_n13_within_1_gib(tmp_path, argv):
    """Each ascent walk's size is known before it starts, so the first n
    over its cap exits 2 at once: the qsym table at n = 13 (hmu --n 13 ran
    out of memory under 1 GiB after 83 s while it read that table), the
    Schur fold at n = 18 and the ascent sum of hmu and hook at n = 25."""
    code, out, err, _, cpu = run_child(tmp_path, *argv)
    assert (code, out) == (2, b"")
    assert err == ASCENT_REFUSALS[argv] + "\n"
    assert cpu < 1


HUGE = "1" + "0" * 20
DIGITS_901 = "1" + "0" * 900


@pytest.mark.parametrize("argv, cap", [
    (("hook", "--n", HUGE), "3000 MB"),
    (("frobenius", "--n", HUGE), "3000 MB"),
    (("hmu", "--n", HUGE, "--mu", HUGE), "3000 MB"),
    (("hook", "--n", "100000"), "3000 MB"),
    (("hmu", "--n", "30000", "--mu", "30000"), "3000 MB"),
    (("hilbert", "--n", DIGITS_901), "750 MB"),
])
def test_huge_n_is_refused_by_its_cap_at_once(tmp_path, argv, cap):
    """A bound that needs no integer of n bits refuses a huge n: 1 << (n - 1)
    overflowed at n = 10^20, and at n = 100000 the slot count, or a
    901-digit n's walk bound, passed Python's int-to-str digit limit, which
    became the printed reason."""
    code, out, err, _, cpu = run_child(tmp_path, *argv)
    assert (code, out) == (2, b"")
    line, rest = err.split("\n", 1)
    assert rest == "" and ("n=%s " % argv[2]) in line and line.endswith("over the cap of %s" % cap), line[:200]
    assert cpu < 1


def test_bijection_refuses_n10_within_1_gib(tmp_path):
    """The rows of size n grow from the table of size n-1, held whole, so
    the listing gate checks that table, one entry per a12 element of size
    n-1, against the listing cap before it is built: n = 10 exits 2 at
    once, and n = 9 runs."""
    code, out, err, _, cpu = run_child(tmp_path, "bijection", "--n", "10", "--format", "csv")
    assert (code, out) == (2, b"")
    assert err == (
        "the bijection table for n=10 holds the table for n=9, whose a12 basis has 92897280 elements, "
        "over the listing cap of %d\n" % cli.MAX_ENUMERATED
    )
    assert cpu < 1
    assert basis.count_basis(8, "a12") <= cli.MAX_ENUMERATED < basis.count_basis(9, "a12")


def test_bijection_n7_runs_within_1_gib(tmp_path):
    code, out, err, _, _ = run_child(tmp_path, "bijection", "--n", "7", "--format", "csv", timeout=300)
    assert (code, err) == (0, "")
    # the header and one row per a12 element
    assert out.count(b"\n") == 1 + basis.count_basis(7, "a12")


def check_csv_rows(lines, n):
    """Check the rows of `bijection --n n --format csv`, as byte strings
    without their line ends: every bar mask's group holds n! rows, the
    groups come in mask order, each sorted by sigma, and a seeded sample
    of 2,000 rows goes through psi_inverse and psi back to its own monomial
    and statistics.  Returns the row count."""
    import random

    width, size = 2 * n - 1, factorial(n)  # sigma's width, a group's row count
    sample = set(random.Random(2024).sample(range(basis.count_basis(n, "a12")), 2000))
    count, checked = 0, 0
    group, bars, last = -1, None, None
    for count, line in enumerate(lines):
        sigma = line[:width]
        if sigma[1::2] != bars:  # the separators, one between each two letters
            bars = sigma[1::2]
            mask = sum(1 << i for i, c in enumerate(bars) if c == ord("|"))
            assert mask == group + 1 and count == size * mask, (count, sigma)
            group = mask
        else:
            assert last < sigma, (count, sigma)
        last = sigma
        if count in sample:
            sigma, monomial, k, l, inv, split = next(csv.reader([line.decode()]))
            element = smirnov.psi_inverse(smirnov.parse_word(sigma))
            assert element.monomial_str() == monomial, sigma
            word = smirnov.psi(element)
            assert smirnov.format_word(word) == sigma
            stats = smirnov.word_statistics(word)
            assert stats[:3] == (int(k), int(l), int(inv)), sigma
            assert "{%s}" % ",".join(map(str, stats[3])) == split, sigma
            checked += 1
    assert checked == 2000 and group == (1 << (n - 1)) - 1
    return count + 1


@pytest.mark.skipif(
    not os.environ.get("COINV_LONG"),
    reason="bijection --n 8 in subprocesses; set COINV_LONG=1 (about 2 minutes)",
)
@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")
@pytest.mark.parametrize("fmt, lines, digest", [
    pytest.param("csv", 1 + 5160960, "f06a0d0de58dc95abcc29f247de3dd6d3780678c335ece639d8751b1fe641b3a", id="csv"),
    pytest.param("json", 2 + 8 * 5160960, "d40bce08d15adc457732f3637cc19b1c30c3fee2fa6b5d2b4bcfa93397282af7", id="json"),
    pytest.param("text", 1 + 5160960, "7bc84bbf72f3ddf1754c889c8e2a3186fc805c197b6159322572be550efe98d6", id="text"),
])
def test_bijection_n8_runs_within_1_gib(tmp_path, fmt, lines, digest):
    """The table of size 7 is held and the rows of size 8 are grown one bar
    mask's group at a time; the run used to be refused, as it would hold
    about 1.4 GB of rows."""
    code, out_path, err, peak, _ = spawn_child(tmp_path, "bijection", "--n", "8", "--format", fmt, timeout=600)
    try:
        assert (code, err) == (0, "")
        with open(out_path, "rb") as out:
            if fmt == "csv":
                assert next(out) == (",".join(BIJECTION_HEADER) + "\n").encode()
                assert 1 + check_csv_rows((line[:-1] for line in out), 8) == lines
            else:
                assert sum(1 for _ in out) == lines
        sha = hashlib.sha256()
        with open(out_path, "rb") as out:
            for chunk in iter(lambda: out.read(1 << 20), b""):
                sha.update(chunk)
        assert sha.hexdigest() == digest
    finally:
        out_path.unlink()
    # the peak is in kB; the held table of size 7 is packed in columns per
    # bar mask, and the run takes 31 to 37 MB, against about 90 MB with a
    # tuple and a sigma per held entry and about 159 MB with a copy of
    # every part per entry
    assert peak < 50 * 1024, peak


def streamed_lines(stdout, sha):
    """The lines of a binary stream without their line ends, each chunk
    read also going into the hash sha."""
    tail = b""
    for chunk in iter(lambda: stdout.read(1 << 20), b""):
        sha.update(chunk)
        lines = (tail + chunk).split(b"\n")
        tail = lines.pop()
        yield from lines
    assert tail == b"", tail[:100]


@pytest.mark.skipif(
    not os.environ.get("COINV_LONG"),
    reason="bijection --n 9 in a subprocess; set COINV_LONG=1 (about 5 minutes)",
)
@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")
def test_bijection_n9_csv_runs_within_1_gib(tmp_path):
    """The table of size 8, 5,160,960 entries, is held in columns and the
    92,897,280 rows of size 9 are grown one bar mask's group at a time.
    The run's 7.1 GB of stdout are checked and hashed as they stream."""
    sha = hashlib.sha256()

    def check(stdout):
        lines = streamed_lines(stdout, sha)
        assert next(lines) == ",".join(BIJECTION_HEADER).encode()
        return 1 + check_csv_rows(lines, 9)

    code, count, err, peak, _ = stream_child(tmp_path, check, "bijection", "--n", "9", "--format", "csv",
                                             timeout=1800)
    assert (code, err) == (0, "")
    assert count == 1 + 92897280
    assert sha.hexdigest() == "894abe8bb736b44e28a650f561ad41821cf1f3496be7cc17c35b8d6acafdb304"
    # the peak is in kB; the run takes about 215 MB, most of it the held
    # table at about 27 bytes an entry
    assert peak < 300 * 1024, peak


@pytest.mark.skipif(
    not os.environ.get("COINV_LONG"),
    reason="the largest ascent tables under the cap, in subprocesses; set COINV_LONG=1 (about 3 minutes)",
)
@pytest.mark.parametrize("argv, digest", [
    (("frobenius", "--n", "12"), "1e8a8f6bb087e8ef016c5855dc4e098c89964cf7eb63ed68ca4ec3cf200b8733"),
    (("frobenius", "--n", "12", "--form", "qsym"), "f5299c8297616f08c047a66c4a84505052994268f9dbd57383300ddd5dff851a"),
    (("hmu", "--n", "12", "--mu", "12"), "54a98a597614db701bbaa06ae13cc4554394d03c4fb5d77d7590b850348606e8"),
    (("hook", "--n", "12"), "b6977ee16e43cd5760943b5176149a869614b98ab6bca2f76324ff9208957a04"),
])
def test_ascent_table_below_the_cap_runs_within_1_gib(tmp_path, argv, digest):
    # frobenius --n 12 ran out of memory under 1 GiB while the series held
    # a second copy of the table
    code, out, err, _, _ = run_child(tmp_path, *argv, timeout=600)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out).hexdigest() == digest


@pytest.mark.skipif(
    not os.environ.get("COINV_LONG"),
    reason="frobenius --n 11 in a subprocess; set COINV_LONG=1 (about 10 s)",
)
def test_frobenius_n11_output_and_peak_memory(tmp_path):
    returncode, out, err, peak, _ = run_child(tmp_path, "frobenius", "--n", "11", "--form", "schur")
    assert (returncode, err) == (0, "")
    assert hashlib.sha256(out).hexdigest() == "ea33020765674ef4c73777bece0232bd2acc9d87e6cefb9690ae4b9fbbd7f171"
    # the peak is in kB; the run took about 410 MB while the series copied
    # the ascent table, and takes about 220 MB
    assert peak < 300 * 1024, peak


@pytest.mark.skipif(
    not os.environ.get("COINV_LONG"),
    reason="the ascent sum and the Schur fold past the old table cap, in subprocesses; "
           "set COINV_LONG=1 (about 1 minute)",
)
@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")
@pytest.mark.parametrize("argv, digest, bound", [
    (("hmu", "--n", "16", "--mu", ",".join(["1"] * 16)),
     "7811fc2c6d2a2857fdc05ac410280918774aa19288c128dc6651416d5264d7c9", 120),
    (("hmu", "--n", "16", "--mu", "5,4,4,3"),
     "4c1f1b99da63cfac26687dde107538fd01b87627ea2b5b1bb643df985b02c67c", 120),
    (("hook", "--n", "16"), "9e80d8bd92d1c0e55f8bd8f9335aee7ac3055b68389639193b76b97934c1176f", 120),
    (("frobenius", "--n", "13", "--form", "schur"),
     "dea8b42c7c5b16c7af02964501722d05c19f2cf087582d32e94e52b91a6c8c9a", 120),
], ids=["hmu-1^16", "hmu-5443", "hook", "frobenius-schur-13"])
def test_ascent_walks_past_the_table_cap_run_within_1_gib(tmp_path, argv, digest, bound):
    """hmu and hook read one layered ascent sum and the Schur form folds the
    branching walk, so none holds the table that refused n = 13."""
    code, out, err, peak, _ = run_child(tmp_path, *argv, timeout=600)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out).hexdigest() == digest
    # the peak is in kB: about 54-64 MB for the sums at n = 16 and 62 MB
    # for the fold at n = 13, which held the table to 585 MB at n = 12
    assert peak < bound * 1024, peak


def test_oracle_negative_max_x_degree_exits_2_before_any_piece(capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("a piece was eliminated")

    monkeypatch.setattr(oracle, "_ideal_rank", no_work)
    code, out, err = run_cli(capsys, "oracle", "--n", "2", "--max-x-degree", "-1")
    assert code == 2
    assert out == ""
    assert "max_x_degree must be at least 0" in err


@pytest.mark.parametrize("command", ["basis", "hilbert", "frobenius", "bijection", "hook", "hmu", "verify", "oracle"])
def test_jobs_is_only_an_oracle_option(command):
    """No command, oracle included, takes --jobs."""
    with pytest.raises(SystemExit) as exc:
        main([command, "--n", "2", "--jobs", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv,count", [
    (("basis", "--n", "9"), 92897280),
    (("basis", "--n", "9", "--variant", "a12", "--format", "json"), 92897280),
    (("basis", "--n", "7", "--variant", "b12"), 82575360),
    (("bijection", "--n", "10"), 92897280),
    (("basis", "--n", "40", "--variant", "b11"), 197613377),
])
def test_oversized_listing_exits_2_before_enumerating(capsys, monkeypatch, argv, count):
    def no_enumeration(*args, **kwargs):
        raise AssertionError("the basis was enumerated")

    monkeypatch.setattr(basis, "enumerate_basis", no_enumeration)
    monkeypatch.setattr(basis, "iter_basis", no_enumeration)
    monkeypatch.setattr(smirnov, "psi_table", no_enumeration)
    # both listing commands gate at the one cap: basis on the basis it
    # lists, bijection on the table of size n-1 it holds
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "has %d elements" % count in err
    assert "over the listing cap of %d" % cli.MAX_ENUMERATED in err


def test_bijection_refuses_a_large_n_at_the_first_n_over_its_cap(capsys, monkeypatch):
    """The one gate names the first n whose table is over the row cap,
    before any of the table is built."""
    def no_table(*args, **kwargs):
        raise AssertionError("the table was started")

    monkeypatch.setattr(smirnov, "psi_table", no_table)
    monkeypatch.setattr(basis, "iter_basis", no_table)
    code, out, err = run_cli(capsys, "bijection", "--n", "40")
    assert (code, out) == (2, "")
    assert err == (
        "the bijection table for n=10 holds the table for n=9, whose a12 basis has 92897280 elements "
        "(and it grows with n), over the listing cap of 10000000\n"
    )


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


# Runs one command in a fresh interpreter and prints its exit code and every
# module loaded by the end.  -S keeps site hooks from loading modules of
# their own, so what is listed is the interpreter's and coinv's.
IMPORT_PROBE = """\
import contextlib, io, sys
from coinv import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(code, *sorted(sys.modules))
"""

CLI_CORE = {"coinv", "coinv.cli", "coinv.basis", "coinv.combinat", "coinv.motzkin", "coinv.qpoly"}

IMPORT_BUDGET = [
    (("hilbert", "--n", "3"), set()),
    (("basis", "--n", "3", "--variant", "b12"), set()),
    (("frobenius", "--n", "3"), {"coinv.symfun"}),
    (("hmu", "--n", "3", "--mu", "2,1"), {"coinv.symfun"}),
    (("hook", "--n", "3"), {"coinv.symfun"}),
    (("bijection", "--n", "3"), {"coinv.smirnov"}),
    (("oracle", "--n", "2"), {"coinv.oracle"}),
]


@pytest.mark.parametrize("argv, extra", [pytest.param(*case, id=case[0][0]) for case in IMPORT_BUDGET])
def test_each_command_imports_only_the_layers_it_runs(argv, extra):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", IMPORT_PROBE, *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    code, *loaded = proc.stdout.split()
    assert code == "0"
    assert {m for m in loaded if m.startswith("coinv")} == CLI_CORE | extra
    assert "dataclasses" not in loaded


@pytest.mark.parametrize("argv, writers", [
    (("hilbert", "--n", "3"), set()),
    (("frobenius", "--n", "3"), set()),
    (("hmu", "--n", "3", "--mu", "2,1"), set()),
    (("hook", "--n", "3", "--format", "csv"), {"csv"}),
    (("frobenius", "--n", "3", "--format", "json"), {"json"}),
    (("bijection", "--n", "3", "--format", "csv"), {"csv"}),
])
def test_json_and_csv_load_only_with_their_formats(argv, writers):
    """A text command loads neither writer module; each format loads its own."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", IMPORT_PROBE, *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    code, *loaded = proc.stdout.split()
    assert code == "0"
    assert {"json", "csv"} & set(loaded) == writers
