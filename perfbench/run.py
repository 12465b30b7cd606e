#!/usr/bin/env python3
"""Build and run the SEER end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree. The first run configures and builds
perfbench/ (the SEER libraries from src/ plus the seer_perfbench
program, Release) under $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); later runs rebuild incrementally. Build output
goes to stderr, so the last line of stdout is the program's JSON result.
Extra flags (--size N) are passed through to seer_perfbench.
"""
import hashlib
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def check(command):
    """Run a build step, its output on stderr; exit on failure."""
    result = subprocess.run(command, cwd=ROOT, stdout=sys.stderr,
                            stderr=sys.stderr)
    if result.returncode != 0:
        sys.exit("perfbench: build step failed: " + " ".join(command))


def build(out):
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        check(["cmake", "-S", BENCH_DIR, "-B", out,
               "-DCMAKE_BUILD_TYPE=Release"] + generator)
    jobs = str(min(4, os.cpu_count() or 1))
    check(["cmake", "--build", out, "--target", "seer_perfbench",
           "-j", jobs])
    return os.path.join(out, "seer_perfbench")


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True)
        if result.returncode == 0:
            return result.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for base, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "source-sha256:" + digest.hexdigest()[:16]


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no SEER sources next to perfbench/ "
                 "(expected src/CMakeLists.txt); run from a source tree")
    out = build_dir()
    binary = build(out)
    work = os.path.join(out, "run")
    os.makedirs(work, exist_ok=True)
    # Relative, so the daemon's socket path stays short.
    command = [binary] + sys.argv[1:] + [
        "--work-dir", os.path.relpath(work, ROOT),
        "--commit", source_id()]
    # A terminated run still stops and reaps seer_perfbench (finally below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    child = subprocess.Popen(command, cwd=ROOT)
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


if __name__ == "__main__":
    sys.exit(main())
