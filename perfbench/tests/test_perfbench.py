"""Tests of the benchmark itself: inputs, span arithmetic, gate and guards."""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import runner  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Job  # noqa: E402

ENV = runner.child_env(ROOT)


def _inputs(workload, seed):
    return [(job.key, job.payload) for job in workloads.jobs(workload, seed)]


def test_same_seed_same_inputs_and_other_seeds_differ():
    for workload in workloads.WORKLOADS:
        assert _inputs(workload, 7) == _inputs(workload, 7)
    for workload in ("series", "bijection", "oracle"):
        assert len({json.dumps(_inputs(workload, seed)) for seed in range(1, 6)}) > 1, workload
    # verify --n 5 has no input a seed could vary.
    assert _inputs("verify", 1) == _inputs("verify", 2)


def test_oracle_sample_keeps_one_of_each_mirror_pair_under_the_cap():
    import random

    for kind, n, cap in workloads.ORACLE_SAMPLES:
        pieces = [tuple(p) for p in workloads.oracle_pieces(random.Random(3), kind, n, cap)]
        assert len(pieces) == len(set(pieces))
        for _, _, r, s, t in pieces:
            assert workloads.ambient_size(n, (r, s, t)) <= cap
            assert s == t or (kind, n, r, t, s) not in pieces


def test_segmented_permutations_are_permutations_with_valid_bars():
    import random

    rng = random.Random(0)
    for _ in range(50):
        letters, splits = workloads.segmented_permutation(rng, 10)
        assert sorted(letters) == list(range(1, 11))
        assert splits == sorted(set(splits)) and all(1 <= s <= 9 for s in splits)


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_subtracts_child_spans_of_any_layer():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and b [5, 7].
    tracer = tracing.Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 7, 10]))
    tracer.enter("a")
    tracer.enter("b")
    tracer.enter("c")
    assert tracer.leave() == 1
    assert tracer.leave() == 3
    tracer.enter("b")
    tracer.leave()
    assert tracer.leave() == 10
    assert tracer.summary() == {"a": 5, "b": 4, "c": 1}
    assert tracer.stack == []


def test_nested_spans_of_one_layer_add_up_to_its_outer_span():
    # a [0, 10] holds a [2, 8], which holds b [3, 6].
    tracer = tracing.Tracer(clock=FakeClock([0, 2, 3, 6, 8, 10]))
    tracer.enter("a")
    tracer.enter("a")
    tracer.enter("b")
    tracer.leave()
    tracer.leave()
    tracer.leave()
    assert tracer.summary() == {"a": 7, "b": 3}


def test_wall_s_is_the_median_round_scaled_by_its_calibrations():
    ref = run.CALIBRATION_REF_S
    rounds = [
        {"traced": False, "wall_s": 3.0, "calibration_s": [ref, ref], "peak_rss_mb": 10.0},
        {"traced": False, "wall_s": 8.0, "calibration_s": [2 * ref, 2 * ref], "peak_rss_mb": 12.0},
        {"traced": False, "wall_s": 9.0, "calibration_s": [2 * ref, 4 * ref], "peak_rss_mb": 11.0},
    ]
    spec = {"end_to_end": [{"name": "wall_s", "unit": "s"}, {"name": "peak_rss_mb", "unit": "MB"},
                           {"name": "setup_s", "unit": "s"}]}
    values = run.metrics(spec, rounds, 0.25, trace=0)
    # Scaled rounds: 3.0, 4.0 and 3.0.
    assert values["wall_s"]["value"] == pytest.approx(3.0)
    assert values["setup_s"] == {"value": 0.25, "unit": "s"}
    assert values["peak_rss_mb"] == {"value": 11.0, "unit": "MB"}
    assert run.scaled(1.0, [ref, 3 * ref]) == pytest.approx(0.5)


def test_wrong_reference_hash_is_reported_as_a_failed_job():
    job = Job("cli", ("hilbert", "--n", "2"))
    done = runner.spawn(runner.command(job), ROOT, ENV)
    assert runner.gate(job, done, {job.key: done.stdout_sha256}) == ""
    round_ = run.run_round([job], ENV, {job.key: "0" * 64}, {}, deadline=float("inf"), traced=False)
    (record,) = round_["jobs"]
    assert not record["ok"]
    assert "reference" in record["reason"]


def test_failed_exit_and_missing_reference_fail_the_gate():
    job = Job("cli", ("hilbert", "--n", "0"))
    done = runner.spawn(runner.command(job), ROOT, ENV)
    assert runner.gate(job, done, {}).startswith("exit code 2")
    job = Job("cli", ("hilbert", "--n", "2"))
    done = runner.spawn(runner.command(job), ROOT, ENV)
    assert runner.gate(job, done, {}).startswith("no reference hash")


def test_timeout_kills_the_job_and_fails_it():
    done = runner.spawn([sys.executable, "-c", "import time; time.sleep(30)"], ROOT, ENV, timeout_s=0.3)
    assert done.exit_code is None
    assert done.wall_s < 10
    assert runner.gate(Job("cli", ("x",)), done, {}).startswith("killed")


def test_address_space_limit_fails_an_oversized_allocation():
    code = "bytearray(%d)" % (2 * runner.ADDRESS_SPACE_BYTES)
    done = runner.spawn([sys.executable, "-c", code], ROOT, ENV)
    assert done.exit_code == 1
    assert b"MemoryError" in done.stderr_tail


def test_api_gate_needs_every_input_checked():
    job = Job("api", name="oracle-sample", payload={"n": 4, "inputs": [[1, 0, 0], [2, 0, 0]]})
    ok = runner.Completed(0, "", 0, b'{"checked": 2, "mismatches": 0}\n', b"", 0.1, 0.1, 1.0)
    assert runner.gate(job, ok, {}) == ""
    short = runner.Completed(0, "", 0, b'{"checked": 1, "mismatches": 0}\n', b"", 0.1, 0.1, 1.0)
    assert "checked 1 of 2" in runner.gate(job, short, {})
    wrong = runner.Completed(0, "", 0, b'{"checked": 2, "mismatches": 1, "first": [2, 0, 0]}\n',
                             b"", 0.1, 0.1, 1.0)
    assert "mismatches" in runner.gate(job, wrong, {})


def test_traced_job_keeps_stdout_and_counts_echelon_rows(tmp_path):
    job = Job("cli", ("oracle", "--n", "3", "--variant", "a12"))
    plain = runner.spawn(runner.command(job), ROOT, ENV)
    trace_path = str(tmp_path / "trace.json")
    traced = runner.spawn(runner.command(job, trace_path=trace_path), ROOT, ENV)
    assert traced.exit_code == 0
    assert traced.stdout_sha256 == plain.stdout_sha256
    with open(trace_path) as f:
        totals = json.load(f)
    assert totals["oracle.rows_inserted"] == 8459
    assert totals["oracle.rows_independent"] == 3587
    assert totals["oracle.elim_s"] > 0 and totals["cli.self_s"] > 0


def test_traced_api_job_reports_its_layers(tmp_path):
    words = [[[2, 1, 3], [1]], [[3, 1, 2], []]]
    inputs = tmp_path / "inputs.json"
    inputs.write_text(json.dumps({"inputs": words}))
    job = Job("api", name="bijection-sample", payload={"inputs": words})
    trace_path = str(tmp_path / "trace.json")
    done = runner.spawn(runner.command(job, str(inputs), trace_path), ROOT, ENV)
    assert runner.gate(job, done, {}) == ""
    with open(trace_path) as f:
        totals = json.load(f)
    assert totals["smirnov.calls"] == 2 * 4
    assert totals["basis.ascent_calls"] == 2
