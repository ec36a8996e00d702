"""Compare the coinv command line of two source trees, invocation by invocation.

    python tools/identity.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are the `src` directories of two checkouts.  Every
invocation of MATRIX runs once with each directory on PYTHONPATH, the two
side by side; their stdout, stderr and exit codes are compared.  Each
invocation that differs is printed with what differs.  The exit code is 1
when any invocation differs, else 0.  The matrix holds refusals from
every cap and every input check, so the two trees are compared on their
messages too.  The whole matrix of 298 invocations took 51 s on a 2-core
machine: about 11 s for `verify --n 12`, about 9 s for
`bijection --n 8 --format csv` and about 7 s for the oracle's long n = 4
run.  On a busier 2-core machine, where those three took 20, 15 and 10 s
alone, it took 100 to 127 s; on that machine, with `bijection --n 8`
down to 8 s on one side, it took 99 s.
"""

import hashlib
import os
import subprocess
import sys
import tempfile


def _frobenius():
    out = []
    for n in range(1, 9):
        for form in ("qsym", "schur"):
            for fmt in ("text", "json", "csv", "latex"):
                out.append(("frobenius", "--n", str(n), "--form", form, "--format", fmt))
    filters = [("--k", "0"), ("--k", "1"), ("--l", "0"), ("--l", "2"), ("--k", "1", "--l", "1"),
               ("--k", "2", "--l", "1")]
    for n in (4, 6):
        for form in ("qsym", "schur"):
            for kl in filters:
                out.append(("frobenius", "--n", str(n), "--form", form, *kl))
    # refused: k or l out of range
    for kl in (("--k", "4"), ("--l", "-1"), ("--k", "2", "--l", "2")):
        out.append(("frobenius", "--n", "4", *kl))
    return out


def _basis():
    out = []
    for variant in ("a12", "a11", "a02", "b12", "b11"):
        for n in range(1, 6 if variant == "b12" else 7):
            for fmt in ("text", "json", "csv"):
                out.append(("basis", "--n", str(n), "--variant", variant, "--format", fmt))
    # refused: over the listing cap
    out.append(("basis", "--n", "9"))
    out.append(("basis", "--n", "40", "--variant", "b11"))
    return out


def _hilbert():
    return [("hilbert", "--n", str(n), "--variant", variant, "--format", fmt)
            for variant in ("a12", "a11", "a02", "b12", "b11")
            for n in (1, 3, 5, 8)
            for fmt in ("text", "json", "csv", "latex")]


def _tables():
    out = []
    for n, fmt in ((4, "text"), (5, "json"), (6, "csv")):
        mu = ",".join(["2"] + ["1"] * (n - 2))
        out.append(("hook", "--n", str(n), "--format", fmt))
        out.append(("hmu", "--n", str(n), "--mu", mu, "--format", fmt))
        out.append(("bijection", "--n", str(n), "--format", fmt))
    # every format of the table at n=6, n=7 and n=8; n=9, the largest n
    # under the cap on the table it holds, would write 7.1 GB of csv a side
    for n, fmt in ((6, "json"), (6, "text"), (7, "csv"), (7, "text"), (8, "csv")):
        out.append(("bijection", "--n", str(n), "--format", fmt))
    # refused: the held table over the cap
    out.append(("bijection", "--n", "10"))
    return out


MATRIX = _frobenius() + _basis() + _hilbert() + _tables() + [
    ("verify", "--n", "5"),
    ("verify", "--n", "7"),
    # the one invocation that runs every check at its own limit
    ("verify", "--n", "12"),
    ("oracle", "--n", "3"),
    ("oracle", "--n", "3", "--variant", "b12"),
    ("oracle", "--n", "2", "--variant", "b12", "--format", "json"),
    ("oracle", "--n", "4", "--variant", "a12", "--long"),
    # refused: a long run without --long, a piece or a window over its cap,
    # and a negative window
    ("oracle", "--n", "4"),
    ("oracle", "--n", "5", "--variant", "a12", "--long"),
    ("oracle", "--n", "200", "--long"),
    ("oracle", "--n", "1", "--max-x-degree", "100000000"),
    ("oracle", "--n", "2", "--max-x-degree", "-1"),
    # refused: the series walk over its memory cap
    ("hilbert", "--n", "38"),
    ("hilbert", "--n", "31", "--variant", "b11"),
    ("hilbert", "--n", "10000000", "--variant", "b12"),
    # refused: the Schur fold and the ascent sum over their cap
    ("frobenius", "--n", "18"),
    ("hmu", "--n", "25", "--mu", "25"),
    ("hook", "--n", "25"),
    ("hook", "--n", "1" + "0" * 20),
    # refused: invalid input
    ("hmu", "--n", "3", "--mu", "2,2"),
    ("hmu", "--n", "3", "--mu", "x"),
    ("hook", "--n", "3", "--d", "5"),
    ("verify", "--n", "0"),
]


def _start(src, argv):
    """Start one invocation, its stdout going to a temporary file: at
    `bijection --n 8` each side writes about 300 MB."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = tempfile.TemporaryFile()
    return subprocess.Popen([sys.executable, "-m", "coinv.cli", *argv], env=env,
                            stdout=out, stderr=subprocess.PIPE), out


def _outcome(started):
    """(exit code, stdout sha256, stderr) of a started invocation."""
    proc, out = started
    with out:
        _, err = proc.communicate()
        out.seek(0)
        digest = hashlib.sha256()
        for chunk in iter(lambda: out.read(1 << 20), b""):
            digest.update(chunk)
    return proc.returncode, digest.hexdigest(), err.decode(errors="replace")


def compare(parent_src, change_src, matrix):
    """The invocations of matrix whose outcome differs, as (argv, parent
    outcome, change outcome) triples."""
    differing = []
    for argv in matrix:
        procs = _start(parent_src, argv), _start(change_src, argv)
        before, after = (_outcome(proc) for proc in procs)
        if before != after:
            differing.append((argv, before, after))
    return differing


def main():
    args = sys.argv[1:]
    if len(args) != 2:
        print("usage: python tools/identity.py PARENT_SRC CHANGE_SRC", file=sys.stderr)
        return 2
    differing = compare(*args, MATRIX)
    for command, before, after in differing:
        print("DIFFERS: coinv %s" % " ".join(command))
        for name, old, new in zip(("exit code", "stdout sha256", "stderr"), before, after):
            if old != new:
                print("  %s: %r -> %r" % (name, old, new))
    print("%d invocations, %d differ" % (len(MATRIX), len(differing)))
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
