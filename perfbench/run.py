#!/usr/bin/env python3
"""Closed-loop benchmark of coinv: one client, one job at a time.

    python3 perfbench/run.py --workload series --seed 1 --seconds 26 --trace 0

Each job runs in a fresh interpreter with the checkout's src/ on PYTHONPATH,
is timed from outside and gated for correctness. Rounds of the workload's
jobs repeat until the next round would end past --seconds; a calibration job
before and after each round scales its time (see CALIBRATION_CODE). With
--trace 0 the result holds the end-to-end metrics named in BENCHMARK.json;
with --trace 1, untraced and traced rounds alternate and the result holds the
per-layer metrics. The last line of stdout is the JSON result; a run record
with every job's wall time, CPU time and peak RSS goes to perfbench/out/.
"""

import argparse
import json
import os
import statistics
import sys
import time

import runner
import workloads
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

SETUP_RUNS = 11
SETUP_CODE = "import coinv.cli, sys; sys.stdout.write(coinv.cli.__file__)"
# Past this, jobs are killed at once, so a run ends well within 180 s.
RUN_LIMIT_S = 150.0

# A fixed pure-Python job that imports nothing, run before and after every
# round and around set-up. Other tenants of a shared machine slow everything
# down by up to 2x for minutes at a time; the calibration job slows down with
# the coinv jobs, so each measured time is scaled by CALIBRATION_REF_S over
# the mean of the two calibration times around it. CALIBRATION_REF_S, roughly
# the calibration job's best time on a 2-vCPU, 2.0 GHz virtual machine with
# Python 3.11, only sets the scale: scaled times read as seconds on a machine
# that runs the calibration job in that time.
CALIBRATION_CODE = """\
d = {}
for i in range(400000):
    k = (i % 997, i % 13)
    d[k] = d.get(k, 0) + i * 3 % 7
"""
CALIBRATION_REF_S = 0.23


class SetupError(Exception):
    pass


def read_loadavg():
    try:
        with open("/proc/loadavg") as f:
            return [float(x) for x in f.read().split()[:3]]
    except (OSError, ValueError):
        return None


def git_revision(root):
    """HEAD's commit, read from .git without running git; None outside a repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def calibrate(env):
    return runner.spawn([sys.executable, "-c", CALIBRATION_CODE], ROOT, env).wall_s


def scaled(seconds, calibrations):
    """A measured time scaled by the calibration times taken around it."""
    return seconds * CALIBRATION_REF_S / statistics.mean(calibrations)


def measure_setup(env):
    """Fresh interpreter start plus `import coinv.cli`, after one warm-up run
    that fills the bytecode cache. Fails unless coinv comes from this checkout."""
    expected = os.path.join(ROOT, "src", "coinv", "cli.py")
    samples = []
    for i in range(SETUP_RUNS + 1):
        done = runner.spawn([sys.executable, "-c", SETUP_CODE], ROOT, env)
        if done.exit_code != 0:
            raise SetupError("cannot import coinv.cli from %s: %s"
                             % (os.path.join(ROOT, "src"), done.stderr_tail.decode(errors="replace")))
        found = done.stdout_tail.decode()
        if os.path.realpath(found) != os.path.realpath(expected):
            raise SetupError("coinv.cli imported from %s, not from this checkout" % found)
        if i:
            samples.append(done.wall_s)
    return samples


def run_round(jobs, env, reference, inputs, deadline, traced):
    """Run every job once, in order; return the round's record."""
    records = []
    for job in jobs:
        trace_path = os.path.join(OUT, "trace-%d.json" % os.getpid()) if traced else None
        cmd = runner.command(job, inputs.get(job.key), trace_path)
        timeout = min(runner.JOB_TIMEOUT_S, deadline - time.perf_counter())
        done = runner.spawn(cmd, ROOT, env, timeout)
        reason = runner.gate(job, done, reference)
        record = {
            "job": job.key, "ok": not reason, "reason": reason,
            "wall_s": done.wall_s, "cpu_s": done.cpu_s, "rss_mb": done.rss_mb,
            "stdout_bytes": done.stdout_bytes,
        }
        if traced:
            try:
                with open(trace_path) as f:
                    record["trace"] = json.load(f)
                os.remove(trace_path)
            except (OSError, ValueError):
                record["trace"] = {}
        records.append(record)
    return {
        "traced": traced,
        "wall_s": sum(r["wall_s"] for r in records),
        "peak_rss_mb": max(r["rss_mb"] for r in records),
        "jobs": records,
    }


def closed_loop(jobs, env, reference, inputs, seconds, trace, run_start, calibration):
    """Repeat rounds (untraced, then traced when trace is set) while the next
    one is expected to end within `seconds`; always run at least one. Each
    round records the calibration times before and after it; `calibration`
    is the one taken just before the loop."""
    deadline = run_start + RUN_LIMIT_S
    rounds = []
    start = time.perf_counter()
    iterations = 0
    while True:
        for traced in (False, True) if trace else (False,):
            round_ = run_round(jobs, env, reference, inputs, deadline, traced)
            after = calibrate(env)
            round_["calibration_s"] = [calibration, after]
            calibration = after
            rounds.append(round_)
        iterations += 1
        spent = time.perf_counter() - start
        if spent * (iterations + 1) / iterations > seconds:
            return rounds


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def layer_values(round_):
    """Per-layer totals of one traced round: sums over its jobs, maxima for MAX_KEYS."""
    totals = {}
    for record in round_["jobs"]:
        for key, value in record["trace"].items():
            if key in tracing.MAX_KEYS:
                totals[key] = max(totals.get(key, 0), value)
            else:
                totals[key] = totals.get(key, 0) + value
    inserted = totals.get("oracle.rows_inserted", 0)
    totals["oracle.useful_ratio"] = totals.get("oracle.rows_independent", 0) / inserted if inserted else 0.0
    totals["cli.bytes_out"] = sum(r["stdout_bytes"] for r in round_["jobs"] if r["job"].startswith("coinv "))
    return totals


def median_scaled_wall(rounds):
    return statistics.median(scaled(r["wall_s"], r["calibration_s"]) for r in rounds)


def metrics(spec, rounds, setup_s, trace):
    """The result's metrics: end-to-end ones untraced, per-layer ones traced.

    wall_s is the median over untraced rounds of the round's summed job wall
    time, each round scaled by the calibrations around it.
    """
    plain = [r for r in rounds if not r["traced"]]
    if not trace:
        values = {
            "wall_s": median_scaled_wall(plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "setup_s": setup_s,
        }
        wanted = spec["end_to_end"]
    else:
        traced = [r for r in rounds if r["traced"]]
        per_round = [layer_values(r) for r in traced]
        names = {m["name"] for m in spec["per_layer"]}
        values = {name: statistics.median(v.get(name, 0) for v in per_round) for name in names}
        values["trace.overhead_frac"] = median_scaled_wall(traced) / median_scaled_wall(plain) - 1.0
        wanted = spec["per_layer"]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    run_start = time.perf_counter()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "reference.json")) as f:
        reference = json.load(f)
    os.makedirs(OUT, exist_ok=True)
    env = runner.child_env(ROOT)
    try:
        before_setup = calibrate(env)
        setup_samples = measure_setup(env)
    except SetupError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    after_setup = calibrate(env)
    setup_s = scaled(statistics.median(setup_samples), [before_setup, after_setup])

    jobs = workloads.jobs(args.workload, args.seed)
    inputs = {}
    for job in jobs:
        if job.kind == "api":
            path = os.path.join(OUT, "inputs-%d-%s.json" % (os.getpid(), job.name))
            with open(path, "w") as f:
                json.dump(job.payload, f)
            inputs[job.key] = path
    load_before = read_loadavg()
    try:
        rounds = closed_loop(jobs, env, reference, inputs, args.seconds, args.trace, run_start,
                             after_setup)
    finally:
        for path in inputs.values():
            os.remove(path)
    load_after = read_loadavg()

    result_metrics = metrics(spec, rounds, setup_s, args.trace)
    all_jobs = [j for r in rounds for j in r["jobs"]]
    failed = [j for j in all_jobs if not j["ok"]]
    walls = [r["wall_s"] for r in rounds if not r["traced"]]
    q1, q3 = quartiles(walls)
    record = {
        "revision": git_revision(ROOT),
        "python": sys.version,
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loadavg_before": load_before,
        "loadavg_after": load_after,
        "setup_s": setup_samples,
        "setup_calibration_s": [before_setup, after_setup],
        "round_wall_s": {"median": statistics.median(walls), "q1": q1, "q3": q3, "rounds": len(walls)},
        "failed_frac": len(failed) / len(all_jobs),
        "metrics": result_metrics,
        "rounds": rounds,
    }
    record_path = os.path.join(OUT, "record-%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    with open(record_path, "w") as f:
        json.dump(record, f, indent=1)

    print("workload %s, seed %d: %d rounds, %d jobs, %d failed"
          % (args.workload, args.seed, len(rounds), len(all_jobs), len(failed)))
    print("raw round wall time: median %.4f s, quartiles %.4f..%.4f s over %d untraced rounds"
          % (record["round_wall_s"]["median"], q1, q3, len(walls)))
    for job in failed:
        print("FAILED %s: %s" % (job["job"], job["reason"]))
    for name, m in result_metrics.items():
        print("%-40s %14.6g %s" % (name, m["value"], m["unit"]))
    print("%-40s %14.6g %s" % ("failed_frac", record["failed_frac"], "frac"))
    print("record: %s" % os.path.relpath(record_path, ROOT))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(all_jobs),
        "failed": len(failed),
        "metrics": result_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
