#!/usr/bin/env python3
"""Build and run the layer benchmark.

    python3 layerbench/run.py --workload replay_k1 --seed 1 --seconds 10 --trace 0

Configures and builds layerbench/ (which compiles the library from src/)
into $CARGO_TARGET_DIR/layerbench, default .bench_build/layerbench, then
runs the benchmark binary from the repository root with the given
arguments. Build output goes to stderr; the binary's stdout is passed
through, so the last line of stdout is the JSON verdict. Exits non-zero,
without a verdict, if the build fails.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = Path(__file__).resolve().parent


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "layerbench"


def build(out: Path) -> bool:
    """Configures once, then lets CMake rebuild whatever changed."""
    steps = []
    configured = (out / "Makefile").exists() or (out / "build.ninja").exists()
    if not configured:
        steps.append(["cmake", "-S", str(SOURCE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(out), "--target", "layerbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            print("layerbench: build failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def main() -> int:
    out = build_dir()
    if not build(out):
        return 1
    binary = out / "layerbench"
    return subprocess.run([str(binary)] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
