#!/usr/bin/env python3
"""Record the SHA-256 of every benchmark CLI job's stdout into reference.json.

    python3 perfbench/record_reference.py

Run this only at a commit whose output is known to be right: the benchmark
gates every later commit against these hashes.
"""

import json
import os
import sys

import runner
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    env = runner.child_env(ROOT)
    reference = {}
    for job in workloads.all_cli_jobs():
        done = runner.spawn(runner.command(job), ROOT, env)
        if done.exit_code != 0:
            print("%s exited with %r" % (job.key, done.exit_code), file=sys.stderr)
            return 1
        reference[job.key] = done.stdout_sha256
        print("%s  %s" % (done.stdout_sha256, job.key))
    with open(os.path.join(HERE, "reference.json"), "w") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
