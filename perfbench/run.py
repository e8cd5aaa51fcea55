#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--small]

Run from the repository root. Builds perfbench/bench.exe with dune into
.bench_build/ (no shared dune cache), then runs it with the given arguments;
its last stdout line is the JSON result. Build output goes to stderr. Exits
non-zero without a result when the sources are not there or the build or the
run fails.
"""
import hashlib
import os
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "dune")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
SOURCES = ["dune-project", "lib", "bin", "perfbench"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def src_digest():
    """md5 over the path and content of every source file the build reads."""
    h = hashlib.md5()
    for top in SOURCES:
        paths = []
        if os.path.isfile(top):
            paths = [top]
        for root, dirs, files in os.walk(top):
            dirs.sort()
            paths += [os.path.join(root, f) for f in sorted(files)]
        for p in paths:
            h.update(p.encode() + b"\0")
            with open(p, "rb") as f:
                h.update(hashlib.md5(f.read()).digest())
    return h.hexdigest()


def git_info(env):
    """(rev, dirty) when run inside a git checkout, else ("unknown", "unknown")."""
    if not os.path.isdir(".git"):
        return "unknown", "unknown"
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], env=env, capture_output=True,
                             text=True, timeout=30, check=True).stdout.strip()
        status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                env=env, capture_output=True, text=True, timeout=30,
                                check=True).stdout
        return rev, "true" if status.strip() else "false"
    except (OSError, subprocess.SubprocessError):
        return "unknown", "unknown"


def main():
    if not all(os.path.exists(p) for p in SOURCES):
        print("perfbench: run from the repository root (dune-project, lib/, bin/ "
              "and perfbench/ are required)", file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    os.makedirs(BUILD_DIR, exist_ok=True)
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", os.path.abspath(BUILD_DIR), "--profile",
         "release", "perfbench/bench.exe"],
        env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    rev, dirty = git_info(env)
    env.update(PERFBENCH_GIT_REV=rev, PERFBENCH_GIT_DIRTY=dirty,
               PERFBENCH_SRC_DIGEST=src_digest())
    sys.stdout.flush()
    return subprocess.run([EXE] + sys.argv[1:], env=env, timeout=RUN_TIMEOUT_S).returncode


if __name__ == "__main__":
    sys.exit(main())
