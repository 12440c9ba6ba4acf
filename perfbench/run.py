#!/usr/bin/env python3
"""End-to-end benchmark of a whole coupled run.

Run from the repository root:

    python3 perfbench/run.py --workload fig4_shm --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The first call builds the benchmark program (perfbench/CMakeLists.txt, which compiles
the framework from src/) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; later calls rebuild
only what changed. The program's report goes to standard output and its last
line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones. Traced runs also leave a per-rank self-time
table and a span dump under the build directory's perfbench-work/.

--self-test runs every workload at a tiny size, checks that each metric of
BENCHMARK.json is printed with its unit, and checks that the output check
fails when the expected answers are deliberately corrupted.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")
WORK_DIR = BUILD_DIR + "-work"
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170


def fail(message, code=3):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures once, then lets the build tool rebuild what changed."""
    if shutil.which("cmake") is None:
        fail("cmake not found")
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4"])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        if done.returncode != 0:
            sys.stderr.write(done.stdout.decode(errors="replace")[-8000:])
            fail("build failed: " + " ".join(step))


def source_identity():
    """The git commit when there is one, plus a digest of src/ either way."""
    commit = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL)
        if done.returncode == 0:
            commit = done.stdout.decode().strip()
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "%s src-sha256:%s" % (commit, digest.hexdigest()[:16])


def run_benchmark(args, capture=False):
    """Runs the benchmark program in a process group of its own, so that
    every process it forks can be stopped with it."""
    cmd = [BINARY, "--workdir", WORK_DIR, "--commit", source_identity()] + args
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True,
                            stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("benchmark exceeded %d s and was stopped" % RUN_TIMEOUT_S, 4)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # leftovers of a crashed run
        except ProcessLookupError:
            pass
    return proc.returncode, (out.decode(errors="replace") if capture else "")


def last_json(text):
    lines = [l for l in text.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def self_test():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        base = ["--workload", workload, "--seed", "7", "--seconds", "1", "--tiny"]
        for trace in ("0", "1"):
            code, out = run_benchmark(base + ["--trace", trace], capture=True)
            result = last_json(out)
            where = "%s --trace %s" % (workload, trace)
            if code != 0 or result is None or not result.get("correct"):
                problems.append(where + ": run failed (exit %d)" % code)
                continue
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(where + ": unexpected result keys %s" % sorted(result))
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            if got != wanted[trace]:
                problems.append(where + ": metrics differ from BENCHMARK.json: missing %s, extra %s,"
                                " unit mismatch %s" % (
                                    sorted(set(wanted[trace]) - set(got)),
                                    sorted(set(got) - set(wanted[trace])),
                                    sorted(k for k in got if k in wanted[trace] and got[k] != wanted[trace][k])))
            # The report prints the end-to-end metrics on every pass and the
            # per-layer ones on traced passes, each as "<name> <value> <unit>".
            names = ["op_error_rate"] + list(wanted["0"]) + (list(wanted["1"]) if trace == "1" else [])
            for name in names:
                if not any(l.split()[:1] == [name] and len(l.split()) == 3 for l in out.splitlines()):
                    problems.append(where + ": report lacks a '%s <value> <unit>' line" % name)
        code, out = run_benchmark(base + ["--trace", "0", "--corrupt-oracle"], capture=True)
        result = last_json(out)
        if code == 0 or result is None or result.get("correct") or result.get("failed", 0) < 1:
            problems.append(workload + ": a corrupted expected answer went unnoticed")
        print("self-test %s: %s" % (workload, "ok" if not problems else "problems so far"))
    for p in problems:
        print("  " + p)
    print("self-test " + ("passed" if not problems else "FAILED"))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed")
    parser.add_argument("--seconds")
    parser.add_argument("--trace", choices=["0", "1"])
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    build()
    if args.self_test:
        sys.exit(self_test())
    if not (args.workload and args.seed and args.seconds and args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    sys.stdout.flush()
    code, _ = run_benchmark(["--workload", args.workload, "--seed", args.seed,
                          "--seconds", args.seconds, "--trace", args.trace])
    sys.exit(code)


if __name__ == "__main__":
    main()
