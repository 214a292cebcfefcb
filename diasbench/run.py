#!/usr/bin/env python3
"""Build and run the DiAS benchmark.

Run from the root of a checkout:

    python3 diasbench/run.py --workload wc_priority_open --seed 1 --seconds 30 --trace 0
    python3 diasbench/run.py --self-test

The first call configures and builds diasbench/ (and the library sources in
src/ it compiles against) into .bench_build/diasbench. The benchmark's last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics; the exit code is non-zero when the build fails, a job
fails or a result is wrong. See diasbench/README.md.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("wc_priority_open", "pagerank_spill_closed", "wc_tenants_ft_obs")
BUILD_ROOT = Path(".bench_build")
BUILD_DIR = BUILD_ROOT / "diasbench"
WORK_DIR = BUILD_ROOT / "run"


def git_sha(root):
    """The checkout's commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run(cmd, env):
    """Runs a build step with its output on stderr; True on success."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode == 0


def build(src, targets, env):
    BUILD_ROOT.mkdir(exist_ok=True)
    # Serialize concurrent builds in one checkout.
    with open(BUILD_ROOT / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD_DIR / "CMakeCache.txt").exists():
            cmd = ["cmake", "-S", str(src), "-B", str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if not run(cmd, env):
                shutil.rmtree(BUILD_DIR, ignore_errors=True)
                return False
        jobs = str(min(4, os.cpu_count() or 1))
        return run(["cmake", "--build", str(BUILD_DIR), "-j", jobs, "--target", *targets], env)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the harness helper tests instead")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    root = Path.cwd()
    src = Path(__file__).resolve().parent
    # Keep compiler and library temporaries inside the checkout.
    env = dict(os.environ)
    tmp = (root / BUILD_ROOT / "tmp").resolve()
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)

    target = "diasbench_tests" if args.self_test else "diasbench"
    if not build(src, [target], env):
        print("diasbench: build failed", file=sys.stderr)
        return 1
    if args.self_test:
        return subprocess.run([str(BUILD_DIR / "diasbench_tests")], env=env).returncode

    cmd = [str(BUILD_DIR / "diasbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", repr(args.seconds),
           "--trace", str(args.trace),
           "--work-dir", str(WORK_DIR),
           "--git-sha", git_sha(root)]
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
