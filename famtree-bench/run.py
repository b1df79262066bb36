#!/usr/bin/env python3
"""famtree-bench: builds the benchmark from source and runs one workload.

Run from the repository root:

  python3 famtree-bench/run.py --workload <mine_batch|serve_mixed|ooc_spill> \
      --seed <n> --seconds <s> --trace <0|1>
  python3 famtree-bench/run.py --selfcheck [--seed <n>]

The first call configures and builds famtree-bench/ (which compiles ../src)
into .bench_build/famtree-bench; later calls rebuild incrementally. Build
output goes to stderr. The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}. Spill files and the
ooc_spill input live in a per-run directory under .bench_build/tmp that is
removed when the run ends; traces go to .bench_build/traces. Exits non-zero without a result when the build or the
run fails. See famtree-bench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build"
BUILD = WORK / "famtree-bench"
BINARY = BUILD / "famtree_bench"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
SELFCHECK_TIMEOUT_S = 600


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("famtree-bench: no famtree sources at", ROOT / "src")
        return False
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            log("famtree-bench: build step failed:", err)
            return False
        if done.returncode != 0:
            log("famtree-bench: build step failed:", " ".join(cmd))
            return False
    return BINARY.is_file()


def commit_id():
    """The checkout's git commit, or 'unknown' outside a git checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()
    if not args.selfcheck and args.workload is None:
        parser.error("--workload is required")

    if not build():
        return 2
    # A private temp directory per run, removed however the run ends.
    tmp = WORK / "tmp" / str(os.getpid())
    traces = WORK / "traces"
    tmp.mkdir(parents=True, exist_ok=True)
    traces.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))

    if args.selfcheck:
        cmd = [str(BINARY), "--selfcheck", "--seed", str(args.seed)]
        timeout = SELFCHECK_TIMEOUT_S
    else:
        cmd = [str(BINARY), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--trace-dir", str(traces),
               "--commit", commit_id()]
        timeout = RUN_TIMEOUT_S
    # A SIGTERM to this script stops the benchmark process too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                             text=True, env=env, cwd=str(ROOT))
    try:
        stdout, _ = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        log("famtree-bench: run exceeded", timeout, "s")
        return 3
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        shutil.rmtree(tmp, ignore_errors=True)
    done = subprocess.CompletedProcess(cmd, child.returncode, stdout)
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    if args.selfcheck:
        print("\n".join(lines))
        return done.returncode
    if done.returncode != 0 or not lines:
        log("\n".join(lines))
        log("famtree-bench: run failed with exit code", done.returncode)
        return done.returncode or 4
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("\n".join(lines))
        log("famtree-bench: the last line is no result object")
        return 4
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
