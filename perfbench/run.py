#!/usr/bin/env python3
"""Build the benchmark and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds `perfbench` (a cargo package of its own, depending on the
repository's crates by path) into `$CARGO_TARGET_DIR` (default
`.bench_build`), then runs it with the given arguments. Build output goes to
standard error; the last line of standard output is the benchmark's JSON
result. Exits nonzero, without a result, when the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def git_sha():
    """The commit being measured, or "unknown" outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=HERE,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    # Only this repository's own commit counts, not an enclosing one's.
    if out.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.dirname(HERE):
        return "unknown"
    return lines[1]


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    env.setdefault("PERFBENCH_OUT", os.path.join(target, "perfbench"))
    env.setdefault("PERFBENCH_GIT_SHA", git_sha())
    exe = os.path.join(target, "release", "perfbench")
    return subprocess.run([exe] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
