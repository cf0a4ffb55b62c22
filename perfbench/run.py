#!/usr/bin/env python3
"""Build and run one hglift benchmark workload.

    python3 perfbench/run.py --workload paper_audit --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --check      # every workload once at the second seed

--seed draws the order of each pass's inputs (batch workloads) or the
patch stream (serve_patch); the inputs themselves are the default
populations. --check runs every workload once with the inputs and the
order both drawn from the second seed, 1, a draw no tuning has looked at.

Run from the repository root. The first run configures and builds the
harness and the `hglift` daemon from src/ into .bench_build/ (or
$CARGO_TARGET_DIR when set); later runs only check that the build is up to
date. Build output goes to stderr. The harness's standard output is passed
through; its last line is the result JSON, whose metric names and units
are checked against BENCHMARK.json before it is printed.
"""

import argparse
import fcntl
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SECOND_SEED = 1
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build(bdir):
    """Configure once, then build the harness and the daemon (no-op when
    up to date). Serialised by a lock so concurrent runs share one build."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no hglift sources under {ROOT / 'src'}")
    bdir.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    with open(bdir / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (bdir / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", str(bdir), "-j", jobs, "--target",
                      "perfbench_harness", "hglift"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
                fail("build failed: " + " ".join(cmd))


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_harness(bdir, workload, seed, seconds, trace, population=0):
    """Run the harness in its own process group; returns (exit code, stdout).
    population 0 is the default populations; --check passes SECOND_SEED.
    Whatever the harness leaves behind (the serve daemon) is killed with the
    group."""
    cmd = [str(bdir / "perfbench_harness"), "--workload", workload,
           "--seed", str(seed), "--population", str(population),
           "--seconds", str(seconds),
           "--trace", "1" if trace else "0",
           "--hglift", str(bdir / "hglift" / "driver" / "hglift"),
           "--out", str(bdir / "out")]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    return proc.returncode, out


def result_of(out, trace):
    """The result JSON (last line), checked against BENCHMARK.json."""
    lines = out.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    want = expected_metrics(trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail(f"metrics do not match BENCHMARK.json: {sorted(set(got) ^ set(want))}")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--check", action="store_true",
                    help="run every workload once at the second seed and "
                         "report ok_share and witnessed_share")
    args = ap.parse_args()

    bdir = build_dir()
    build(bdir)

    if args.check:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        ok = True
        for w in spec["workloads"]:
            code, out = run_harness(bdir, w["name"], SECOND_SEED, 10, False,
                                    population=SECOND_SEED)
            if code:
                sys.stdout.write(out)
                fail(f"{w['name']} exited {code}")
            r = result_of(out, False)
            m = r["metrics"]
            print(f"{w['name']} population and seed {SECOND_SEED}: "
                  f"correct={r['correct']} "
                  f"ok_share={m['ok_share']['value']:.4f} "
                  f"witnessed_share={m['witnessed_share']['value']:.4f} "
                  f"({r['attempted']} attempted, {r['failed']} failed)")
            ok &= r["correct"]
        sys.exit(0 if ok else 1)

    if not args.workload:
        fail("--workload is required")
    code, out = run_harness(bdir, args.workload, args.seed, args.seconds,
                            bool(args.trace))
    if code:
        sys.stdout.write(out)
        fail(f"harness exited {code}")
    result_of(out, bool(args.trace))
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
