#!/usr/bin/env python3
"""Build and run the repo benchmark.

Run from the repo root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Workloads: sweep, sweep_sharded, serve_cold, serve_hot (see
perfbench/README.md). The first run configures and builds the program
and the harness from source into .bench_build/perfbench (or
$CARGO_TARGET_DIR/perfbench); later runs rebuild only what changed.
Everything a run writes lands in .bench_build/perfbench-out/. The last
stdout line is one JSON object with the keys correct, attempted, failed
and metrics; --trace 1 reports the per-layer metrics and leaves a
Chrome trace (trace.json) in the run's output directory.

`python3 perfbench/run.py --selftest` builds and runs the helper tests.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HARNESS_TIMEOUT_S = 150


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_root():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(build_dir):
    """Configure once, then build the harness, the CLI and the tests."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(log_path, "a") as log:
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.call(cmd, stdout=log, stderr=log) != 0:
                fail(f"cmake configure failed; see {log_path}")
        jobs = str(os.cpu_count() or 1)
        if subprocess.call(["cmake", "--build", build_dir, "-j", jobs],
                           stdout=log, stderr=log) != 0:
            fail(f"build failed; see {log_path}")


def source_id():
    """The git commit when there is one, else a hash of the sources."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-" + h.hexdigest()[:16]


def snapshot(skip):
    """(size, mtime) of every file in the checkout outside `skip`."""
    files = {}
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = [d for d in dirnames
                       if os.path.join(dirpath, d) != skip and d != ".git"]
        for name in filenames:
            path = os.path.join(dirpath, name)
            try:
                st = os.lstat(path)
            except OSError:
                continue
            files[os.path.relpath(path, ROOT)] = (st.st_size, st.st_mtime_ns)
    return files


def stop_group(pgid):
    """SIGTERM then SIGKILL every process left in the harness's group."""
    for sig, grace in ((signal.SIGTERM, 5.0), (signal.SIGKILL, 5.0)):
        try:
            os.killpg(pgid, sig)
        except ProcessLookupError:
            return
        deadline = time.monotonic() + grace
        while time.monotonic() < deadline:
            try:
                os.killpg(pgid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.05)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")) or \
            not os.path.exists(os.path.join(ROOT, "tools", "CMakeLists.txt")):
        fail(f"no powerchop sources under {ROOT}", 2)
    broot = build_root()
    build_dir = os.path.join(broot, "perfbench")
    # Compiler and harness temporaries stay inside the checkout too.
    tmp = os.path.join(broot, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    build(build_dir)
    if args.selftest:
        sys.exit(subprocess.call(
            ["ctest", "--output-on-failure", "--no-tests=error"], cwd=build_dir))
    if not args.workload:
        fail("--workload is required", 2)

    before = snapshot(broot)
    out_dir = os.path.join(broot, "perfbench-out",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    cmd = [os.path.join(build_dir, "perfbench_harness"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--cli", os.path.join(build_dir, "tools", "powerchop"),
           "--expected", os.path.join(HERE, "expected.json"),
           "--commit", source_id(), "--out", out_dir]
    log_path = os.path.join(out_dir, "harness.log")
    with open(log_path, "w") as log:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=log,
                                text=True, start_new_session=True)
        try:
            stdout, _ = proc.communicate(timeout=HARNESS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            stop_group(proc.pid)
            proc.communicate()
            fail(f"harness timed out after {HARNESS_TIMEOUT_S}s; see {log_path}")
    # Daemons and shard workers belong to the harness's process group;
    # any survivor is a hygiene failure, stopped here either way.
    leftover = True
    try:
        os.killpg(proc.pid, 0)
    except ProcessLookupError:
        leftover = False
    stop_group(proc.pid)

    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(open(log_path).read()[-4000:])
        fail(f"harness exited {proc.returncode}; see {log_path}")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("harness printed no result line")

    problems = []
    if leftover:
        problems.append("processes outlived the harness")
    if list(result["metrics"]) != expected_metrics(args.trace):
        problems.append("metric names differ from BENCHMARK.json")
    changed = sorted(set(snapshot(broot).items()) ^ set(before.items()))
    if changed:
        problems.append("the run changed the checkout: " +
                        ", ".join(sorted({p for p, _ in changed})[:5]))
    for p in problems:
        print(f"perfbench: FAIL: {p}", file=sys.stderr)
    if problems:
        result["correct"] = False

    # Keep the small top-level artifacts; drop campaign/serve dirs.
    for name in os.listdir(out_dir):
        path = os.path.join(out_dir, name)
        if os.path.isdir(path):
            shutil.rmtree(path, ignore_errors=True)
    if args.trace:
        print(f"info: Chrome trace at {os.path.join(out_dir, 'trace.json')}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
