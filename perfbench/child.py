"""One job in a fresh interpreter: an API job, or any job under the tracer.

    python perfbench/child.py [--trace OUT.json] cli ARG...
    python perfbench/child.py [--trace OUT.json] api NAME INPUTS.json

An API job checks every input exactly and prints one JSON line
{"checked": N, "mismatches": M, "first": ...}. With --trace, the coinv
modules are wrapped before the job runs and the per-layer totals are written
to OUT.json when it ends.
"""

import json
import sys


def bijection_sample(payload):
    """Round-trip segmented permutations through psi_inverse and psi, one
    basis element at a time, checking deg_x == sminv, Asc == Split and the
    staircase bound on alpha."""
    from coinv import basis, smirnov

    mismatches, first = 0, None
    for letters, splits in payload["inputs"]:
        word = smirnov.SegmentedWord(tuple(letters), tuple(splits))
        element = smirnov.psi_inverse(word)
        bound = basis.path_bound(element.path())
        ok = (
            smirnov.psi(element) == word
            and element.deg_x == smirnov.sminv(word)
            and basis.ascent_positions(element.alpha, element.theta, element.xi)
            == smirnov.split_positions(word)
            and all(a <= b for a, b in zip(element.alpha, bound))
        )
        if not ok:
            mismatches += 1
            first = first or smirnov.format_word(word)
    return {"checked": len(payload["inputs"]), "mismatches": mismatches, "first": first}


def oracle_sample(payload):
    """Quotient dimensions of sampled graded pieces by exact elimination,
    each against the coefficient of the conjectural Hilbert series."""
    from coinv import basis, oracle

    series = {}
    mismatches, first = 0, None
    for kind, n, *degree in payload["inputs"]:
        if (kind, n) not in series:
            series[kind, n] = basis.hilbert_series(n, kind + "12")
        if oracle.quotient_dimension(n, kind, tuple(degree)) != series[kind, n].coefficient(*degree):
            mismatches += 1
            first = first or [kind, n, *degree]
    return {"checked": len(payload["inputs"]), "mismatches": mismatches, "first": first}


API_JOBS = {"bijection-sample": bijection_sample, "oracle-sample": oracle_sample}


def main(argv):
    trace_out = None
    if argv[:1] == ["--trace"]:
        trace_out, argv = argv[1], argv[2:]
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    try:
        if argv[0] == "cli":
            from coinv import cli

            return cli.main(argv[1:])
        with open(argv[2]) as f:
            payload = json.load(f)
        print(json.dumps(API_JOBS[argv[1]](payload)))
        return 0
    finally:
        if trace_out is not None:
            sys.stdout.flush()
            with open(trace_out, "w") as f:
                json.dump(tracer.summary(), f)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
