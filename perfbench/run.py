#!/usr/bin/env python3
"""End-to-end ODA pipeline benchmark.

Builds the benchmark (perfbench/) against the library sources of the
checkout it runs in, runs one workload in its own process and prints the
result as the last line of standard output:

    python3 perfbench/run.py --workload pipeline_256 --seed 1 --seconds 10 --trace 0

--trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
metrics and writes a Chrome trace of the first traced window, which must
pass scripts/check_trace.py. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the current directory; nothing is written outside it.
"""

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys

WORKLOADS = ("pipeline_256", "pipeline_4096", "dashboard_512")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def cached_source_dir(build_dir):
    cache = build_dir / "CMakeCache.txt"
    if not cache.exists():
        return None
    for line in cache.read_text(errors="replace").splitlines():
        if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
            return line.split("=", 1)[1]
    return None


def build(bench_dir, build_dir):
    env = dict(os.environ)
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    log_path = build_dir / "build.log"
    if cached_source_dir(build_dir) != str(bench_dir):
        configure = ["cmake", "-S", str(bench_dir), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps = [configure]
    else:
        steps = []
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              env=env).returncode != 0:
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed (see {log_path})")
    return build_dir / "oda_perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    bench_dir = pathlib.Path(__file__).resolve().parent
    root = bench_dir.parent
    for needed in ("CMakeLists.txt", "src/CMakeLists.txt",
                   "scripts/check_trace.py"):
        if not (root / needed).is_file():
            fail(f"{needed} not found: run from a full checkout of the repository")

    build_dir = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = build_dir.resolve()
    binary = build(bench_dir, build_dir)

    out_dir = build_dir / f"run-{args.workload}"
    shutil.rmtree(out_dir, ignore_errors=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(out_dir)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload {args.workload} did not finish in {RUN_TIMEOUT_S} s", 1)

    lines = proc.stdout.rstrip("\n").splitlines()
    if not lines:
        fail(f"benchmark printed nothing (exit code {proc.returncode})", 1)
    print("\n".join(lines[:-1]))
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(lines[-1])
        fail(f"benchmark did not end with a JSON result (exit code {proc.returncode})", 1)

    if args.trace:
        trace = out_dir / "trace.json"
        check = subprocess.run([sys.executable, str(root / "scripts/check_trace.py"),
                                str(trace)], stdout=subprocess.PIPE,
                               stderr=subprocess.STDOUT, text=True)
        print(check.stdout.rstrip("\n"))
        if check.returncode != 0:
            print("CHECK FAILED: scripts/check_trace.py rejected the trace")
            result["correct"] = False

    print(json.dumps(result))
    sys.stdout.flush()
    sys.exit(0 if proc.returncode == 0 and result.get("correct") else 1)


if __name__ == "__main__":
    main()
