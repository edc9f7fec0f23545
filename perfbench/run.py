#!/usr/bin/env python3
"""Builds the program and the benchmark from source, then runs one workload.

    python3 perfbench/run.py --workload serve_dct --seed 1 --seconds 20 --trace 0

Workloads: serve_dct, serve_mix, offline_jpeg (see perfbench/README.md).
Build products go to $CARGO_TARGET_DIR (default: .bench_build at the
checkout root). The last line of standard output is the result object;
the exit code is non-zero when a build, an op or an output check failed.
"""

import argparse
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORKLOADS = ("serve_dct", "serve_mix", "offline_jpeg")
# A run must end well inside three minutes; building is not counted.
RUN_TIMEOUT_S = 170


def build(target: Path) -> None:
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    steps = [
        # The shipped daemon, from the repository's own workspace.
        ["cargo", "build", "--release", "--offline", "-q",
         "-p", "scorpio-bench", "--bin", "scorpio_serve"],
        # The benchmark runner, a workspace of its own.
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", str(BENCH / "Cargo.toml")],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result.
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"perfbench: build failed: {' '.join(cmd)}")


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() or "unknown"


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", default="0", choices=("0", "1"))
    args = p.parse_args()

    target = Path(os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build")))
    build(target)
    work = target / "perfbench-work"
    work.mkdir(parents=True, exist_ok=True)
    cmd = [
        str(target / "release" / "scorpio-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--root", str(ROOT),
        "--serve-bin", str(target / "release" / "scorpio_serve"),
        "--work-dir", str(work),
        "--git-commit", git_commit(),
    ]
    # Own process group, so a timeout also takes down the daemon it runs.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s and was killed", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return 130


if __name__ == "__main__":
    sys.exit(main())
