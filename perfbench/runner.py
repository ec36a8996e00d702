"""Run one job in a fresh interpreter: bound it, time it from outside, gate it."""

import hashlib
import json
import os
import resource
import selectors
import signal
import subprocess
import sys
import time
from dataclasses import dataclass

# Both guards sit far above the seed commit's heaviest job (verify --n 5, about
# 2 s and 46 MB peak RSS), so only a runaway job trips them. A job that does
# counts as failed.
JOB_TIMEOUT_S = 60.0
ADDRESS_SPACE_BYTES = 1 << 30
TAIL_BYTES = 4096

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")


@dataclass
class Completed:
    """What a finished child left behind. exit_code is None if it was killed."""

    exit_code: int | None
    stdout_sha256: str
    stdout_bytes: int
    stdout_tail: bytes
    stderr_tail: bytes
    wall_s: float
    cpu_s: float
    rss_mb: float


def child_env(root):
    """The environment of every child: the checkout's own sources, fixed hashing."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_BYTES, ADDRESS_SPACE_BYTES))


def spawn(cmd, cwd, env, timeout_s=JOB_TIMEOUT_S):
    """Run cmd to its end, streaming stdout into a hash.

    Wall time runs from the spawn to the reap; CPU time and peak RSS come
    from os.wait4. The child is killed once timeout_s has passed.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, preexec_fn=_limit_address_space,
    )
    pidfd = os.pidfd_open(proc.pid)
    out_fd, err_fd = proc.stdout.fileno(), proc.stderr.fileno()
    digest = hashlib.sha256()
    nbytes = 0
    tails = {out_fd: b"", err_fd: b""}
    killed = False
    try:
        with selectors.DefaultSelector() as sel:
            for fd in (*tails, pidfd):
                sel.register(fd, selectors.EVENT_READ)
            open_fds = len(tails) + 1
            while open_fds:
                remaining = start + timeout_s - time.perf_counter()
                events = sel.select(None if killed else max(remaining, 0))
                if not events and not killed:
                    signal.pidfd_send_signal(pidfd, signal.SIGKILL)
                    killed = True
                for key, _ in events:
                    fd = key.fd
                    data = b"" if fd == pidfd else os.read(fd, 1 << 16)
                    if fd == pidfd or not data:
                        sel.unregister(fd)
                        open_fds -= 1
                        continue
                    if fd == out_fd:
                        digest.update(data)
                        nbytes += len(data)
                    tails[fd] = (tails[fd] + data)[-TAIL_BYTES:]
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        os.close(pidfd)
        proc.stdout.close()
        proc.stderr.close()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Completed(
        exit_code=None if killed else proc.returncode,
        stdout_sha256=digest.hexdigest(),
        stdout_bytes=nbytes,
        stdout_tail=tails[out_fd],
        stderr_tail=tails[err_fd],
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
    )


def command(job, inputs_path=None, trace_path=None):
    """The argv that runs a job, untraced or under the tracer."""
    if job.kind == "cli" and trace_path is None:
        return [sys.executable, "-m", "coinv.cli", *job.args]
    cmd = [sys.executable, CHILD]
    if trace_path is not None:
        cmd += ["--trace", trace_path]
    if job.kind == "cli":
        return cmd + ["cli", *job.args]
    return cmd + ["api", job.name, inputs_path]


def gate(job, done, reference):
    """Why a finished job is wrong, or "" when it passes.

    A CLI job must exit 0 with stdout whose SHA-256 matches the one recorded
    at the seed commit; an API job must exit 0 and report that it checked
    every input with no mismatch.
    """
    if done.exit_code is None:
        return "killed at its timeout"
    if done.exit_code != 0:
        last = done.stderr_tail.decode(errors="replace").strip().splitlines()[-1:]
        return "exit code %d: %s" % (done.exit_code, "".join(last))
    if job.kind == "cli":
        want = reference.get(job.key)
        if want is None:
            return "no reference hash for %r" % job.key
        if done.stdout_sha256 != want:
            return "stdout sha256 %s, reference %s" % (done.stdout_sha256[:16], want[:16])
        return ""
    lines = done.stdout_tail.decode(errors="replace").strip().splitlines()
    try:
        summary = json.loads(lines[-1])
    except (IndexError, ValueError):
        return "no summary line on stdout"
    expected = len(job.payload["inputs"])
    if summary.get("checked") != expected:
        return "checked %r of %d inputs" % (summary.get("checked"), expected)
    if summary.get("mismatches") != 0:
        return "%r mismatches, first: %s" % (summary.get("mismatches"), summary.get("first"))
    return ""
