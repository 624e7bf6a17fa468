#!/usr/bin/env python3
"""Builds the benchmark and runs it.

    python3 ktau-benchmark/run.py --workload W --seed S --seconds N --trace 0|1
    python3 ktau-benchmark/run.py compare PARENT.jsonl CHANGE.jsonl

Run from the repository root.  Every call builds (or finds up to date) both
variants: the plain build, which the end-to-end metrics come from, and the
`traced` build, which carries the engine self-profiler for `--trace 1`.
Building both on the first call keeps later calls of either kind free of
compile time.  The target directory is `$CARGO_TARGET_DIR`, else
`ktau-benchmark/target`; the traced build goes to its `traced/`
subdirectory.  Cargo's output goes to stderr, so the benchmark's last line
of stdout is its result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")


def build(target_dir, traced):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", MANIFEST, "--target-dir", target_dir]
    if traced:
        cmd += ["--features", "traced"]
    subprocess.run(cmd, check=True, stdout=sys.stderr)
    return os.path.join(target_dir, "release", "ktau-benchmark")


def wants_trace(args):
    if "--traced" in args:
        return True
    for i, a in enumerate(args[:-1]):
        if a == "--trace":
            return args[i + 1] == "1"
    return False


def main():
    args = sys.argv[1:]
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    try:
        plain = build(target, traced=False)
        traced = build(os.path.join(target, "traced"), traced=True)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"benchmark build failed: {e}", file=sys.stderr)
        return 1
    exe = traced if wants_trace(args) else plain
    return subprocess.run([exe] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
