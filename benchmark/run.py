#!/usr/bin/env python3
"""Builds the sysunc end-to-end benchmark from source and runs it.

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Cargo builds the benchmark binary and the
`sysunc-serve` binary (the fleet's shard children) into
$CARGO_TARGET_DIR, `.bench_build` when unset; build output goes to
standard error, so the last line of standard output is the benchmark's
JSON result. A failed build exits non-zero without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", os.path.join(HERE, "Cargo.toml"),
            "-p", "sysunc-e2e-bench", "-p", "sysunc-serve", "--bins",
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        return build.returncode or 1
    exe = os.path.join(target, "release", "e2e")
    # The benchmark replaces this process, so it owns its children and
    # its exit code directly.
    os.execv(exe, [exe] + sys.argv[1:])
    return 1


if __name__ == "__main__":
    sys.exit(main())
