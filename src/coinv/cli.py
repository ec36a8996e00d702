"""Command-line front end.

Subcommands: basis, hilbert, frobenius, bijection, hook, hmu, verify,
oracle.  All computation is deterministic, so output is byte-stable for a
fixed invocation regardless of the oracle's --jobs.  Exit codes: 0 success,
1 verification failure, 2 invalid input, 141 stdout closed by its reader.
"""

import argparse
import csv
import io
import json
import os
import sys
from itertools import islice

# Every command uses basis; the other layers are imported by the commands
# that run them, so a command does not compile and load code it never
# calls.  Start-up is most of a small command's time when no bytecode is
# cached.
from . import basis
from .combinat import Partition


# 128 + SIGPIPE: the status of a process that a closed pipe ended
EXIT_CLOSED_PIPE = 141

# Largest basis that `basis` and `bijection` list element by element.  At
# about 200 bytes an element, a12 n=8 (5,160,960 elements) takes about 1 GB
# and runs; a12 n=9 (92,897,280) and b12 n=7 (82,575,360) are refused.
MAX_ENUMERATED = 10_000_000

# Items per json.dumps call, or rows per write, when a table or a basis is
# printed as json or csv.
JSON_SLICE = 1024


def _fail(message):
    print(message, file=sys.stderr)
    return 2


def _check_kl(args):
    """Refuse --k/--l outside 0 <= k, 0 <= l, k + l < n (unset counts as 0)."""
    k = args.k or 0
    l = args.l or 0
    if k < 0 or l < 0 or k + l >= args.n:
        raise ValueError("--k and --l need 0 <= k, 0 <= l and k + l < n=%d" % args.n)


def _check_enumerable(n, variant):
    """Refuse a basis too large to list, before any of it is built.

    Every basis grows with n, so the counts are taken for n = 1, 2, ... and
    the first one over the cap refuses every larger n without computing its
    series, which at n = 30 alone takes seconds and hundreds of MB.
    """
    for m in range(1, n + 1):
        count = basis.count_basis(m, variant)
        if count > MAX_ENUMERATED:
            raise ValueError(
                "the %s basis for n=%d has %d elements%s, over the listing cap of %d"
                % (variant, m, count, "" if m == n else " (and it grows with n)", MAX_ENUMERATED)
            )


def _print_json_list(items, to_json):
    """Print [to_json(item) for item in items] as json.dumps(..., indent=2) would.

    items may be any iterable.  It is converted and dumped in slices, so
    neither the list nor the document is ever whole: each slice is dumped
    as a list and its brackets cut off.
    """
    encode = json.JSONEncoder(indent=2).encode
    items = iter(items)
    lead = "[\n"
    while True:
        part = [to_json(item) for item in islice(items, JSON_SLICE)]
        if not part:
            break
        sys.stdout.write(lead + encode(part)[2:-2])
        lead = ",\n"
    sys.stdout.write("[]\n" if lead == "[\n" else "\n]\n")


def _print_rows(rows, header, fmt):
    """Emit a table as csv, json or aligned text.

    csv and json take any iterable of rows and write them as they come;
    text aligns its columns, so it needs a sequence.
    """
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        rows = iter(rows)
        while True:
            writer.writerows(islice(rows, JSON_SLICE))
            text = buf.getvalue()
            if not text:
                break
            sys.stdout.write(text)
            buf.seek(0)
            buf.truncate()
    elif fmt == "json":
        _print_json_list(rows, lambda row: dict(zip(header, row)))
    else:
        widths = [max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
                  for i, h in enumerate(header)]
        print("  ".join(str(h).ljust(w) for h, w in zip(header, widths)).rstrip())
        for row in rows:
            print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)).rstrip())


def cmd_basis(args):
    _check_enumerable(args.n, args.variant)
    elements = basis.iter_basis(args.n, args.variant)
    if args.format == "json":
        _print_json_list(elements, basis.BasisElement.to_json)
    elif args.format == "csv":
        rows = ((b.monomial_str(), b.deg_x, b.deg_theta, b.deg_xi) for b in elements)
        _print_rows(rows, ("monomial", "deg_x", "deg_theta", "deg_xi"), "csv")
    else:
        for b in elements:
            print(b.monomial_str())
    return 0


def cmd_hilbert(args):
    poly = basis.hilbert_series(args.n, args.variant)
    if args.format == "json":
        print(json.dumps(poly.to_json(), indent=2))
    elif args.format == "latex":
        print(poly.latex())
    elif args.format == "csv":
        rows = [(a, b, c, coeff) for (a, b, c), coeff in poly.sorted_terms()]
        _print_rows(rows, ("q", "u", "v", "coeff"), "csv")
    else:
        print(str(poly))
    return 0


def cmd_frobenius(args):
    from . import symfun

    _check_kl(args)
    qsym = symfun.frobenius_qsym(args.n, k=args.k, l=args.l)
    if args.form == "qsym":
        if args.format == "json":
            print(json.dumps(qsym.to_json(), indent=2))
        elif args.format == "csv":
            rows = [("{%s}" % ",".join(str(e) for e in s.elements), str(c))
                    for s, c in qsym.sorted_items()]
            _print_rows(rows, ("subset", "coeff"), "csv")
        elif args.format == "latex":
            pieces = ["\\left(%s\\right) Q_{\\{%s\\},%d}"
                      % (c.latex(), ",".join(str(e) for e in s.elements), args.n)
                      for s, c in qsym.sorted_items()]
            print(" + ".join(pieces) if pieces else "0")
        else:
            for subset, coeff in qsym.sorted_items():
                print("%s: %s" % (subset, coeff))
        return 0
    schur = symfun.schur_expansion(qsym)
    if args.format == "json":
        print(json.dumps(schur.to_json(), indent=2))
    elif args.format == "latex":
        print(schur.latex())
    elif args.format == "csv":
        rows = [(str(p), str(c)) for p, c in schur.sorted_items()]
        _print_rows(rows, ("partition", "coeff"), "csv")
    else:
        for partition, coeff in schur.sorted_items():
            print("s[%s]: %s" % (partition, coeff))
    return 0


def bijection_rows(n):
    """The conversion table, grouped by bar pattern (bitmask order) and
    ordered by the underlying permutation within each group."""
    from . import smirnov

    rows = sorted(smirnov.psi_table(n))
    split_labels = {}  # split tuple -> "{...}", one entry per subset of 1..n-1
    # Rows replace their entries in place, so each entry is freed as it goes.
    for at, (_, _, sigma, monomial, k, l, inv, split) in enumerate(rows):
        label = split_labels.get(split)
        if label is None:
            label = split_labels[split] = "{%s}" % ",".join(map(str, split))
        rows[at] = (sigma, monomial, k, l, inv, label)
    return rows


def cmd_bijection(args):
    _check_enumerable(args.n, "a12")
    rows = bijection_rows(args.n)
    _print_rows(rows, ("sigma", "basis_element", "k", "l", "sminv", "split"), args.format)
    return 0


def _kl_pairs(args):
    """The (k, l) pairs with k + l < n in lexicographic order, pinned to
    --k and --l where they are given."""
    for k in [args.k] if args.k is not None else range(args.n):
        for l in [args.l] if args.l is not None else range(args.n - k):
            if k + l < args.n:
                yield k, l


def cmd_hook(args):
    from . import symfun

    _check_kl(args)
    rows = []
    ds = [args.d] if args.d is not None else range(args.n)
    for d in ds:
        for k, l in _kl_pairs(args):
            enum = symfun.hook_schur_coefficient(args.n, k, l, d)
            closed = symfun.hook_qbinomial_formula(args.n, k, l, d)
            rows.append((d, k, l, str(enum), str(closed), enum == closed))
    _print_rows(rows, ("d", "k", "l", "enumeration", "q_binomial_form", "equal"), args.format)
    return 0 if all(r[5] for r in rows) else 1


def cmd_hmu(args):
    from . import symfun

    try:
        parts = tuple(int(p) for p in args.mu.split(",") if p)
        mu = Partition(parts)
    except ValueError as exc:
        return _fail("invalid --mu: %s" % exc)
    if mu.n != args.n:
        return _fail("--mu must be a partition of n=%d" % args.n)
    _check_kl(args)
    rows = [(k, l, str(symfun.h_mu_coefficient(args.n, k, l, mu))) for k, l in _kl_pairs(args)]
    _print_rows(rows, ("k", "l", "coefficient"), args.format)
    return 0


def cmd_verify(args):
    from . import verify

    return verify.run_all(args.n)


def cmd_oracle(args):
    from . import oracle

    kind = args.variant[0]
    cpus = os.cpu_count() or 1
    if not 1 <= args.jobs <= cpus:
        return _fail("--jobs must be between 1 and the %d CPUs of this machine" % cpus)
    if args.n >= 4 and not args.long:
        return _fail("the n >= 4 oracle run is long; pass --long to enable it")
    poly, complete, report = oracle.hilbert_via_oracle(
        args.n, kind, max_x_degree=args.max_x_degree, jobs=args.jobs
    )
    if args.format == "json":
        print(json.dumps({
            "hilbert": poly.to_json(),
            "complete": complete,
            "pieces": report,
        }, indent=2))
    else:
        print("Hilbert series: %s" % poly)
        print("complete: %s" % complete)
        for row in report:
            if row["quotient"]:
                print("degree %r: ambient %d, ideal rank %d, quotient %d"
                      % (tuple(row["degree"]), row["ambient"], row["ideal_rank"], row["quotient"]))
    expected = basis.hilbert_series(args.n, "a12" if kind == "a" else "b12")
    if complete:
        mismatch = poly != expected
    else:
        # the window stops short of the quotient's top, so only the
        # x-degrees it covers can be compared
        top = report[-1]["degree"][0]
        band = [tuple(row["degree"]) for row in report if row["quotient"] and row["degree"][0] >= top - 1]
        print("truncation band is nonzero: x-degrees %d..%d hold %s; raise --max-x-degree"
              % (max(top - 1, 0), top, ", ".join(map(str, band))), file=sys.stderr)
        mismatch = poly.terms != {key: c for key, c in expected.terms.items() if key[0] <= top}
    if mismatch:
        print("MISMATCH against the conjectural series: %s" % expected, file=sys.stderr)
    return 1 if mismatch or not complete else 0


def build_parser():
    parser = argparse.ArgumentParser(prog="coinv", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # each command offers the formats it writes
    tables = ("text", "json", "csv")
    series = tables + ("latex",)

    def common(p, formats, variants=None):
        p.add_argument("--n", type=int, required=True)
        if variants:
            p.add_argument("--variant", choices=variants, default="a12")
        p.add_argument("--format", choices=formats, default="text")

    p = sub.add_parser("basis", help="list the basis elements")
    common(p, tables, basis.VARIANTS)
    p.set_defaults(run=cmd_basis)

    p = sub.add_parser("hilbert", help="the trigraded Hilbert series")
    common(p, series, basis.VARIANTS)
    p.set_defaults(run=cmd_hilbert)

    p = sub.add_parser("frobenius", help="the conjectural Frobenius series")
    common(p, series)
    p.add_argument("--form", choices=("qsym", "schur"), default="schur")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--l", type=int, default=None)
    p.set_defaults(run=cmd_frobenius)

    p = sub.add_parser("bijection", help="the basis <-> segmented permutation table")
    common(p, tables)
    p.set_defaults(run=cmd_bijection)

    p = sub.add_parser("hook", help="hook Schur coefficients, both routes")
    common(p, tables)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--l", type=int, default=None)
    p.set_defaults(run=cmd_hook)

    p = sub.add_parser("hmu", help="h_mu coefficients of the Frobenius series")
    common(p, tables)
    p.add_argument("--mu", required=True, help='partition of n, e.g. "2,1"')
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--l", type=int, default=None)
    p.set_defaults(run=cmd_hmu)

    p = sub.add_parser("verify", help="run the exhaustive cross-check suite")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(run=cmd_verify)

    p = sub.add_parser("oracle", help="quotient dimensions by exact linear algebra")
    common(p, ("text", "json"), ("a12", "b12"))
    p.add_argument("--jobs", type=int, default=1, help="worker processes, at most the CPU count")
    p.add_argument("--max-x-degree", type=int, default=None)
    p.add_argument("--long", action="store_true", help="allow the long runs at n >= 4")
    p.set_defaults(run=cmd_oracle)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.n < 1:
        return _fail("--n must be at least 1")
    try:
        code = args.run(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early, as `| head` does.  Point stdout at
        # the null device so the flush at exit cannot fail again, and exit
        # as a process ended by SIGPIPE would.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_PIPE
    except (ValueError, RuntimeError) as exc:
        return _fail(str(exc))
    return code


if __name__ == "__main__":
    sys.exit(main())
