#!/usr/bin/env python3
"""Build the host-time benchmark from source and run it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark is a Cargo package of its own (`perfbench/Cargo.toml`) that
depends on the workspace crates by path, so it builds from the sources next
to it; the build goes to `$CARGO_TARGET_DIR` (`.bench_build` when unset).
Build output goes to stderr, so the last line of stdout is the benchmark's
JSON result. A failed build exits non-zero without printing a result. With
`--trace 1` the recorded spans are written under the build directory.
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", os.path.join(here, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    args = sys.argv[1:]
    if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]:
        workload = args[args.index("--workload") + 1] if "--workload" in args else "unknown"
        seed = args[args.index("--seed") + 1] if "--seed" in args else "unknown"
        args += ["--trace-out", os.path.join(target, "perfbench-traces", f"{workload}-seed{seed}.json")]
    exe = os.path.join(target, "release", "sf-perfbench")
    return subprocess.run([exe] + args, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
