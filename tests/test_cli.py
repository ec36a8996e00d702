import csv
import hashlib
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


@pytest.mark.parametrize("count", [0, 1, cli.JSON_SLICE, 2 * cli.JSON_SLICE + 1])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_rows_stream_from_a_generator(capsys, count, fmt):
    rows = [(d, "q,r", d % 3 == 0, None) for d in range(count)]
    header = ("a", "b", "c", "d")
    cli._print_rows(rows, header, fmt)
    expected = capsys.readouterr().out
    cli._print_rows((row for row in rows), header, fmt)
    assert capsys.readouterr().out == expected


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


def run_measured(tmp_path, *argv):
    """Run `coinv argv` in a child process; return its exit code, stdout
    bytes, stderr text and resource usage."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out_path, err_path = tmp_path / "out", tmp_path / "err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen([sys.executable, "-m", "coinv.cli", *argv], stdout=out, stderr=err, env=env)
        # wait4 reaps the child and returns its resource usage; Popen is
        # told the exit code so that it does not wait again
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out_path.read_bytes(), err_path.read_text(), usage


@pytest.mark.skipif(
    not os.environ.get("COINV_LONG"),
    reason="verify --n 7 in a subprocess; set COINV_LONG=1 (about 25 s)",
)
def test_verify_n7_output_and_peak_memory(tmp_path):
    returncode, out, err, usage = run_measured(tmp_path, "verify", "--n", "7")
    assert returncode == 0
    # the same 26 ok lines as verify --n 5
    digest = hashlib.sha256(out).hexdigest()
    assert digest == "0f27944aa2233c51b04313041e6a0647a481a15b481e8a59361996f870411897"
    assert err == "".join(
        "verify: %s ran at n=%d (asked 7)\n" % (name, limit) for name, _, limit in verify.CHECKS if limit < 7
    )
    assert "verify: specializations ran" not in err
    # ru_maxrss is in kilobytes on Linux; the run took about 70 MB while
    # specializations compared element lists
    assert usage.ru_maxrss < 40 * 1024, usage.ru_maxrss


@pytest.mark.skipif(
    not os.environ.get("COINV_LONG"),
    reason="serial n=4 oracle in a subprocess; set COINV_LONG=1 (about 20 s)",
)
def test_oracle_n4_output_and_peak_memory(tmp_path):
    returncode, out, err, usage = run_measured(tmp_path, "oracle", "--n", "4", "--variant", "a12", "--long")
    assert returncode == 0 and err == ""
    digest = hashlib.sha256(out).hexdigest()
    assert digest == "b9f60bdeb4add193a47f3c6b80176cab4f307a5f77465b67f1652deaedd4ec82"
    # ru_maxrss is in kilobytes on Linux; the run took about 28 MB when the
    # monomial codes went through SuperMonomial lists
    assert usage.ru_maxrss < 40 * 1024, usage.ru_maxrss


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
    monkeypatch.setattr(basis, "iter_basis", no_enumeration)
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
