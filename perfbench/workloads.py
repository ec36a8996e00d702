"""The benchmark's workloads: the jobs of one round, generated from a seed.

Nothing here imports coinv, so the program sees only the generated inputs.
Each workload is a fixed list of jobs; the seed picks the inputs that vary
(the h_mu partition, the sampled segmented permutations, the sampled oracle
pieces). The `verify` workload has no input to vary, so its jobs are the
same for every seed.
"""

import random
from dataclasses import dataclass, field
from math import comb

WORKLOADS = ("series", "bijection", "oracle", "verify")

SERIES_HMU_N = 6
BIJECTION_SAMPLE_N = 10
BIJECTION_SAMPLE_SIZE = 2000
# (kind, n, cap): the oracle sample takes graded pieces of these rings with at
# most `cap` ambient monomials. At the seed commit the type A n=4 part takes
# about 0.8 s and the type B n=3 part about 0.7 s on a quiet 2.0 GHz core.
ORACLE_SAMPLES = (("a", 4, 200), ("b", 3, 165))


@dataclass(frozen=True)
class Job:
    """One request of the closed loop.

    A "cli" job runs `coinv <args>`. An "api" job runs the function `name`
    of perfbench/child.py on `payload`, read from a file; payload["inputs"]
    lists the inputs it must check one by one.
    """

    kind: str
    args: tuple = ()
    name: str = ""
    payload: dict = field(default=None, compare=False, hash=False)

    @property
    def key(self):
        if self.kind == "cli":
            return "coinv " + " ".join(self.args)
        return "api " + self.name


def partitions(n, largest=None):
    """All partitions of n as tuples, largest part first."""
    if n == 0:
        return [()]
    largest = n if largest is None else largest
    out = []
    for first in range(min(n, largest), 0, -1):
        out.extend((first,) + rest for rest in partitions(n - first, first))
    return out


def segmented_permutation(rng, n):
    """A uniform segmented permutation of 1..n as (letters, bar positions)."""
    letters = rng.sample(range(1, n + 1), n)
    splits = [i for i in range(1, n) if rng.random() < 0.5]
    return letters, splits


def ambient_size(n, degree):
    """Monomials of one multidegree (r, s, t) in n bosonic and 2n fermionic variables."""
    r, s, t = degree
    return comb(r + n - 1, n - 1) * comb(n, s) * comb(n, t)


def oracle_pieces(rng, kind, n, cap):
    """Nonzero degrees (r, s, t) within the oracle's default x-degree window
    and under the ambient cap, as [kind, n, r, s, t]. Of each mirror pair
    (r, s, t), (r, t, s), which cost nearly the same, the seed keeps one, so
    the sample's cost barely depends on the seed."""
    top = (n * (n - 1) // 2 if kind == "a" else n * n) + 2
    pieces = []
    for r in range(top + 1):
        for s in range(n + 1):
            for t in range(s, n + 1):
                if (r, s, t) == (0, 0, 0) or ambient_size(n, (r, s, t)) > cap:
                    continue
                pieces.append([kind, n, r, s, t] if s == t or rng.random() < 0.5 else [kind, n, r, t, s])
    return pieces


def jobs(workload, seed):
    """The jobs of one round of `workload` for `seed`, in the order they run."""
    rng = random.Random("%s:%d" % (workload, seed))
    if workload == "series":
        mu = rng.choice(partitions(SERIES_HMU_N))
        return [
            Job("cli", ("hilbert", "--n", "7", "--variant", "a12")),
            Job("cli", ("hilbert", "--n", "6", "--variant", "b12")),
            Job("cli", ("frobenius", "--n", "6", "--form", "schur")),
            Job("cli", ("hmu", "--n", str(SERIES_HMU_N), "--mu", ",".join(map(str, mu)))),
        ]
    if workload == "bijection":
        words = [segmented_permutation(rng, BIJECTION_SAMPLE_N) for _ in range(BIJECTION_SAMPLE_SIZE)]
        return [
            Job("cli", ("bijection", "--n", "6", "--format", "csv")),
            Job("api", name="bijection-sample", payload={"inputs": words}),
        ]
    if workload == "oracle":
        pieces = [p for sample in ORACLE_SAMPLES for p in oracle_pieces(rng, *sample)]
        rng.shuffle(pieces)
        return [
            Job("cli", ("oracle", "--n", "3", "--variant", "a12")),
            Job("api", name="oracle-sample", payload={"inputs": pieces}),
        ]
    if workload == "verify":
        return [Job("cli", ("verify", "--n", "5"))]
    raise ValueError("unknown workload %r; choose from %s" % (workload, ", ".join(WORKLOADS)))


def all_cli_jobs():
    """Every CLI job any seed can produce, for recording reference hashes."""
    out = {}
    for workload in WORKLOADS:
        for job in jobs(workload, 0):
            if job.kind == "cli":
                out[job.key] = job
    for mu in partitions(SERIES_HMU_N):
        job = Job("cli", ("hmu", "--n", str(SERIES_HMU_N), "--mu", ",".join(map(str, mu))))
        out[job.key] = job
    return [out[k] for k in sorted(out)]
