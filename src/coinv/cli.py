"""Command-line front end.

Subcommands: basis, hilbert, frobenius, bijection, hook, hmu, verify,
oracle.  All computation is deterministic, so output is byte-stable for a
fixed invocation.  Exit codes: 0 success, 1 verification failure, 2 invalid
input, 141 stdout closed by its reader.
"""

import argparse
import io
import os
import sys
from itertools import chain, islice

# Every command uses basis; the other layers are imported by the commands
# that run them, so a command does not compile and load code it never
# calls.  Start-up is most of a small command's time when no bytecode is
# cached.  json and csv are imported, likewise, by the writers that use
# them, so a text command loads neither.
from . import basis
from .combinat import Partition


# 128 + SIGPIPE: the status of a process that a closed pipe ended
EXIT_CLOSED_PIPE = 141

# Largest basis that `basis` lists element by element, and largest table,
# in entries, that `bijection` holds.
# `basis` streams, so the cap bounds its time and output, not its memory:
# a12 n=8 (5,160,960 elements) as json runs in 45 to 51 s at 20 MB under a
# 1 GiB address space; a12 n=9 (92,897,280) and b12 n=7 (82,575,360) are refused.
# The rows of `bijection` at n grow from the table of size n-1, one entry
# per a12 element of size n-1, held whole in columns per bar mask at about
# 27 bytes an entry, one group of n! rows at a time.  So its gate counts
# the table of size n-1: n=9 holds 5,160,960 entries and peaks at 215 to
# 255 MB; the cap would hold about 270 MB, and n=10 would hold 92,897,280
# entries, about 2.5 GB, and is refused before anything is built.
MAX_ENUMERATED = 10_000_000

BIJECTION_HEADER = ("sigma", "basis_element", "k", "l", "sminv", "split")

# Items per json.dumps call, or rows per write, when a table or a basis is
# printed as json or csv.
JSON_SLICE = 1024


def _check_kl(args):
    """Refuse --k/--l outside 0 <= k, 0 <= l, k + l < n (unset counts as 0)."""
    k = args.k or 0
    l = args.l or 0
    if k < 0 or l < 0 or k + l >= args.n:
        raise ValueError("--k and --l need 0 <= k, 0 <= l and k + l < n=%d" % args.n)


def _check_enumerable(n, variant, cap, subject):
    """Refuse a command that holds or lists more than `cap` basis elements
    of size n, before any of them is built; subject(m) names, in the
    reason, what holds the basis of size m.

    Every basis grows with n, so the counts are taken for n = 1, 2, ... and
    the first one over the cap refuses every larger n without computing its
    series, which at n = 30 alone takes seconds and hundreds of MB.
    """
    for m in range(1, n + 1):
        count = basis.count_basis(m, variant)
        if count > cap:
            raise ValueError(
                "%s has %d elements%s, over the listing cap of %d"
                % (subject(m), count, "" if m == n else " (and it grows with n)", cap)
            )


def _print_json_slices(texts):
    """Write a json list as json.dumps(..., indent=2) would, from texts that
    each hold one or more of its items as they sit in the list, joined by
    ",\n"; neither the list nor the document is ever whole."""
    lead = "[\n"
    for text in texts:
        sys.stdout.write(lead + text)
        lead = ",\n"
    sys.stdout.write("[]\n" if lead == "[\n" else "\n]\n")


def _slices(items):
    """The items of any iterable, in lists of up to JSON_SLICE."""
    items = iter(items)
    while part := list(islice(items, JSON_SLICE)):
        yield part


def _print_json_list(items, to_json):
    """Print [to_json(item) for item in items] as json.dumps(..., indent=2) would.

    Each slice of items is dumped as a list and its brackets cut off.
    """
    import json

    encode = json.JSONEncoder(indent=2).encode
    _print_json_slices(encode([to_json(item) for item in part])[2:-2] for part in _slices(items))


def _print_rows(rows, header, fmt):
    """Emit a table as csv, json or aligned text.

    csv and json take any iterable of rows and write them as they come.
    Text measures each column's width over the rows first, so it needs a
    sequence, and writes each column left-aligned to its width and each
    line without trailing spaces.
    """
    if fmt == "csv":
        import csv

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
        widths = [max(len(str(h)), max((len(str(r[i])) for r in rows), default=0)) for i, h in enumerate(header)]
        for row in chain([header], rows):
            print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)).rstrip())


def cmd_basis(args):
    _check_enumerable(args.n, args.variant, MAX_ENUMERATED, lambda m: "the %s basis for n=%d" % (args.variant, m))
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
        import json

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
    if args.form == "schur":
        expansion = symfun.schur_fold(args.n, args.k, args.l)
    else:
        expansion = symfun.frobenius_qsym(args.n, k=args.k, l=args.l)
    if args.format == "json":
        import json

        print(json.dumps(expansion.to_json(), indent=2))
    elif args.format == "csv":
        rows = [(expansion.label(key), str(c)) for key, c in expansion.sorted_items()]
        _print_rows(rows, (expansion.field, "coeff"), "csv")
    elif args.format == "latex":
        print(expansion.latex())
    else:
        for key, coeff in expansion.sorted_items():
            print(expansion.line(key, coeff))
    return 0


def _bijection_groups(n, form, label):
    """smirnov.psi_groups(n, form, label), with n checked here, before any
    of the table is built.

    psi_groups grows each bar mask's group from the table of size n-1 and
    sorts it, so the table of size n is never whole.  Inside one group
    every sigma has its bars and spaces in the same places, so while every
    letter is one digit (n <= 9) sigma's string order is the letters'
    order.
    """
    from . import smirnov

    if not 1 <= n <= 9:
        raise ValueError("the bijection table sorts sigma as a string, so needs 1 <= n <= 9, not n=%d" % n)
    return smirnov.psi_groups(n, form, label)


def bijection_rows(n):
    """The conversion table as an iterator of rows (sigma, monomial, k, l,
    sminv, split), grouped by bar pattern (bitmask order) and ordered by
    the underlying permutation within each group."""
    return chain.from_iterable(_bijection_groups(n, tuple, str))


def bijection_widths(n):
    """The text table's column widths at 1 <= n <= 9, fixed before its
    first row: each is its header's length or its longest cell's.

    Every letter is one digit, so each sigma has 2n - 1 characters, as has
    the largest split set, {1,...,n-1} of the word n|n-1|...|1.  k and l
    are at most 8, one digit, and sminv is at most n(n-1)/2 <= 36, two.
    The longest monomial comes from the bar masks alone.
    """
    from . import smirnov

    longest = (2 * n - 1, smirnov.longest_monomial(n), 1, 1, 2, 2 * n - 1)
    return tuple(max(len(h), w) for h, w in zip(BIJECTION_HEADER, longest))


def _csv_cell(text):
    """One cell as csv.writer writes it."""
    import csv

    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow([text])
    return buf.getvalue()


def _bijection_lines(n, fmt):
    """The %-template of a line of the bijection table in fmt, filled by the
    cells (sigma, monomial, k, l, sminv, split), and the encoder of a split
    label into its cell.

    sigma and the monomial hold digits, letters, spaces, "|", "*" and "^"
    only, which neither csv nor json escapes.  Every line puts sigma first,
    after a prefix common to the format and at a fixed width, so the lines
    sort as their sigmas.  Text pads every cell but the last to its
    column's width, which bijection_widths fixes, and so leaves no
    trailing spaces.
    """
    if fmt == "csv":
        return ",".join(["%s"] * len(BIJECTION_HEADER)) + "\n", _csv_cell
    if fmt == "json":
        import json

        cells = ('"%s"', '"%s"', "%s", "%s", "%s", "%s")
        fields = ",\n".join("    %s: %s" % (json.dumps(key), cell) for key, cell in zip(BIJECTION_HEADER, cells))
        return "  {\n%s\n  }" % fields, json.encoder.encode_basestring_ascii
    widths = bijection_widths(n)
    return "  ".join("%%-%ds" % w for w in widths[:-1]) + "  %s\n", str


def _group_texts(groups, sep):
    """sep.join of each slice of up to JSON_SLICE lines of each group; each
    group is dropped before the next is grown."""
    for group in groups:
        for i in range(0, len(group), JSON_SLICE):
            yield sep.join(group[i:i + JSON_SLICE])
        del group


def cmd_bijection(args):
    _check_enumerable(args.n - 1, "a12", MAX_ENUMERATED,
                      lambda m: "the bijection table for n=%d holds the table for n=%d, whose a12 basis" % (m + 1, m))
    template, label = _bijection_lines(args.n, args.format)
    groups = _bijection_groups(args.n, template.__mod__, label)
    if args.format == "json":
        _print_json_slices(_group_texts(groups, ",\n"))
    else:
        sys.stdout.write(template % BIJECTION_HEADER)
        for text in _group_texts(groups, ""):
            sys.stdout.write(text)
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
        mu = Partition(tuple(int(p) for p in args.mu.split(",")))
    except ValueError as exc:
        raise ValueError("invalid --mu: %s" % exc) from None
    if mu.n != args.n:
        raise ValueError("--mu must be a partition of n=%d" % args.n)
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
    if args.n >= 4 and not args.long:
        raise ValueError("the n >= 4 oracle run is long; pass --long to enable it")
    poly, complete, report = oracle.hilbert_via_oracle(args.n, kind, max_x_degree=args.max_x_degree)
    if args.format == "json":
        import json

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
    top, band, expected, agrees = oracle.compare_with_conjecture(args.n, kind, poly, report)
    if band:
        print("truncation band is nonzero: x-degrees %d..%d hold %s; raise --max-x-degree"
              % (max(top - 1, 0), top, ", ".join(map(str, band))), file=sys.stderr)
    if not agrees:
        print("MISMATCH against the conjectural series: %s" % expected, file=sys.stderr)
    return 0 if agrees and complete else 1


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
    p.add_argument("--max-x-degree", type=int, default=None)
    p.add_argument("--long", action="store_true", help="allow the long runs at n >= 4")
    p.set_defaults(run=cmd_oracle)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.n < 1:
            raise ValueError("--n must be at least 1")
        code = args.run(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early, as `| head` does.  Point stdout at
        # the null device so the flush at exit cannot fail again, and exit
        # as a process ended by SIGPIPE would.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_PIPE
    except (ValueError, RuntimeError) as exc:
        print(exc, file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
