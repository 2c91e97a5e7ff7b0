#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> [--seed <n>] --seconds <n> --trace <0|1>

Run from the repository root. The build goes to $CARGO_TARGET_DIR
(default `.bench_build`). The run gets a fresh directory under `.bench_tmp/`
as its TMPDIR, so checkpoints and cold-tier segments stay inside the
checkout; the directory is removed when the run ends. The last line of
standard output is the run's JSON result.
"""

import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

child = None
stopped = []


def stop(signum, _frame):
    # Pass the stop on to the running child; `run` then sees it exit.
    stopped.append(signum)
    if child is not None:
        child.terminate()


def run(cmd, **kwargs) -> int:
    global child
    child = subprocess.Popen(cmd, cwd=ROOT, **kwargs)
    try:
        return child.wait()
    finally:
        child = None


def main() -> int:
    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    build = run(["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
                env=env, stdout=sys.stderr)
    if stopped:
        return 128 + stopped[0]
    if build != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    binary = os.path.join(target if os.path.isabs(target) else os.path.join(ROOT, target),
                          "release", "perfbench")
    tmp_root = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    # A directory of this run's own: creating it fails if it already exists.
    run_dir = os.path.join(tmp_root, f"run-{os.getpid()}-{time.time_ns()}")
    os.mkdir(run_dir)
    try:
        code = run([binary, *sys.argv[1:]], env={**env, "TMPDIR": run_dir})
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return 128 + stopped[0] if stopped else code


if __name__ == "__main__":
    sys.exit(main())
