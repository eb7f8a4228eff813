#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 hlsbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the harness, the synthesis
libraries and thlsd from source into the build directory ($CARGO_TARGET_DIR
if set, else .bench_build), runs one workload with one seed, and prints as
its last line the result object: {"correct", "attempted", "failed",
"metrics"} with the BENCHMARK.json end_to_end metrics (--trace 0) or
per_layer metrics (--trace 1). The harness's full report, including the
host stamp and the traced run's layer split, is written next to it under
<build>/results/.

    python3 hlsbench/run.py --self-test     # build and run the harness tests
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_TAG = "HLSBENCH_RESULT "
RUN_TIMEOUT_S = 175


def fail(message):
    print("hlsbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out_dir):
    """Configures (once) and builds every target; exits on failure."""
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out_dir, "-j", jobs])
    with open(log_path, "a") as log:
        for step in steps:
            try:
                code = subprocess.call(step, stdout=log, stderr=subprocess.STDOUT,
                                       cwd=ROOT)
            except OSError as error:
                fail("cannot run %s: %s" % (step[0], error))
            if code != 0:
                with open(log_path) as text:
                    tail = text.read()[-3000:]
                sys.stderr.write(tail)
                fail("build failed (%s); see %s" % (" ".join(step[:2]), log_path))


def commit_id():
    """The git commit when there is one, else a digest of the sources the
    benchmark builds (the checkout may not be a git repository)."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0 and head.stdout.strip():
            return head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "tools", "hlsbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as data:
                    digest.update(data.read())
    return "src-" + digest.hexdigest()[:16]


def stop_group(pgid):
    """Stops whatever is left of a process group (thlsd, should the
    harness die before stopping it) and waits until it is gone."""
    for sig in (signal.SIGTERM, signal.SIGKILL):
        try:
            os.killpg(pgid, sig)
        except ProcessLookupError:
            return
        for _ in range(100):
            time.sleep(0.05)
            try:
                os.killpg(pgid, 0)
            except ProcessLookupError:
                return


def metric_names(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec:
        benchmark = json.load(spec)
    return [m["name"] for m in benchmark["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    out_dir = build_dir()
    build(out_dir)
    if args.self_test:
        sys.exit(subprocess.call([os.path.join(out_dir, "hlsbench_selftest")]))
    if args.workload is None or args.seed is None or args.seconds is None \
            or args.trace is None:
        fail("--workload, --seed, --seconds and --trace are required")

    names = metric_names(args.trace == 1)
    # thlsd's Unix socket lives in the work directory; a path relative to
    # the checkout keeps it under the 108-byte socket path limit.
    work_dir = os.path.join(out_dir, "runs")
    if not os.path.relpath(work_dir, ROOT).startswith(".."):
        work_dir = os.path.relpath(work_dir, ROOT)
    command = [os.path.join(out_dir, "hlsbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--commit", commit_id(),
               "--work-dir", work_dir,
               "--expected-dir", os.path.join(HERE, "expected"),
               "--thlsd", os.path.join(out_dir, "thlsd")]
    run = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True,
                           start_new_session=True)
    try:
        stdout, stderr = run.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(run.pid)
        run.communicate()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    stop_group(run.pid)
    sys.stderr.write(stderr)
    report = None
    for line in stdout.splitlines():
        if line.startswith(RESULT_TAG):
            report = json.loads(line[len(RESULT_TAG):])
        else:
            print(line)
    if report is None:
        fail("harness exited with %d and no result" % run.returncode)

    results = os.path.join(out_dir, "results")
    os.makedirs(results, exist_ok=True)
    path = os.path.join(results, "%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w") as out:
        json.dump(report, out, indent=1, sort_keys=True)
    print("hlsbench: host %s" % json.dumps(report["host"], sort_keys=True))
    print("hlsbench: full report in %s" % os.path.relpath(path, ROOT))

    missing = [name for name in names if name not in report["metrics"]]
    if missing:
        fail("harness did not report %s" % ", ".join(missing))
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: report["metrics"][name] for name in names},
    }))
    sys.exit(0 if run.returncode == 0 and report["correct"] else 1)


if __name__ == "__main__":
    main()
