#!/usr/bin/env python3
"""Build and run the serving benchmark.

Run from the root of a source tree:

    python3 perfbench/run.py --workload apps_hot --seed 1 --seconds 10 --trace 0

The first run configures and builds perfbench/ (which compiles the tree's
src/ into its own Release xaas_core) under $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset, and runs the harness
self-tests. Every run then executes the benchmark binary, which prints a
machine fingerprint line and, last, one JSON line of metrics. Traces,
count ledgers (per source digest and seed) and temporary artifact stores go
under <build dir>/out.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

WORKLOADS = ("apps_hot", "cold_specialize")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def git_commit(root):
    """The git commit of the tree, or "none" outside a git checkout."""
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "none"


def source_digest(root):
    """A digest of the sources the benchmark builds, uncommitted edits too."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sha256-" + digest.hexdigest()[:16]


def build(root, build_dir):
    """Configure and build when needed; self-test after every build."""
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    binary = os.path.join(build_dir, "perfbench")
    selftest = os.path.join(build_dir, "perfbench_selftest")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        step = subprocess.run(
            ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if step.returncode != 0:
            fail("cmake configure failed")
    before = os.path.getmtime(binary) if os.path.exists(binary) else None
    step = subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                          stdout=sys.stderr, stderr=sys.stderr)
    if step.returncode != 0:
        fail("build failed")
    if before is None or os.path.getmtime(binary) != before:
        step = subprocess.run([selftest], stdout=sys.stderr, stderr=sys.stderr)
        if step.returncode != 0:
            fail("harness self-tests failed")
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.exists(os.path.join(root, "src", "service", "cluster.hpp")):
        fail("run from the root of the source tree (no src/service/cluster.hpp)")
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(root, build_root, "perfbench"))
    binary = build(root, build_dir)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--out-dir", os.path.join(build_dir, "out"),
               "--commit", git_commit(root), "--source", source_digest(root)]
    # Terminating this script stops the benchmark too, and waits for it.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = child.communicate()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(child.returncode)


if __name__ == "__main__":
    main()
