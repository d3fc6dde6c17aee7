#!/usr/bin/env python3
"""Builds and runs the GeoAlign repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --smoke         # every workload, small scale, seconds
    python3 perfbench/run.py --self-test     # each check flags a corrupted output, and
                                             # the output matches BENCHMARK.json

The first call configures and builds the benchmark (Release) with the
GeoAlign libraries and geoalign_cli under .bench_build/perfbench; later
calls rebuild incrementally. The last line of standard output is the
result object of the run (for `all`/`--smoke`: of the last workload).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ["cli_us_loo", "single_shot_loo", "portal_unaligned", "overlay_voronoi"]


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    """Configures (once) and builds the perfbench target; returns the binaries."""
    if not os.path.isfile(os.path.join(root, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(root, "src")
    ):
        fail("no GeoAlign source tree at " + root)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(
            ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"] + generator
        )
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (log: %s)" % log_path)
    return (os.path.join(build_dir, "perfbench"),
            os.path.join(build_dir, "geoalign", "tools", "geoalign_cli"))


def check_contract(root, bench, common):
    """Smoke-runs every workload untraced and traced and checks that the
    result line carries exactly the metrics and units BENCHMARK.json names."""
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        contract = json.load(f)
    ok = True
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in contract[key]}
        for w in contract["workloads"]:
            out = subprocess.run(
                [bench, "--workload", w["name"], "--seed", "1", "--seconds", "0.5",
                 "--trace", str(trace), "--smoke"] + common,
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            got = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
            good = (out.returncode == 0 and result.get("correct") is True and got == want and
                    set(result) == {"correct", "attempted", "failed", "metrics"})
            print("contract %s trace=%d: %s" % (w["name"], trace, "ok" if good else "MISMATCH"),
                  file=sys.stderr)
            ok = ok and good
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at a small scale, a few seconds each")
    parser.add_argument("--self-test", action="store_true",
                        help="check that every correctness check flags a corrupted output")
    args = parser.parse_args()
    if not (args.workload or args.smoke or args.self_test):
        parser.error("one of --workload, --smoke, --self-test is required")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    bench, cli = build(root, build_dir)
    common = ["--cli", cli, "--work-dir", os.path.join(build_dir, "work")]

    if args.self_test:
        checks_ok = subprocess.run([bench, "--self-test"] + common).returncode == 0
        sys.exit(0 if check_contract(root, bench, common) and checks_ok else 1)

    workloads = WORKLOADS if args.smoke or args.workload == "all" else [args.workload]
    seconds = 1.0 if args.smoke else args.seconds
    status = 0
    # One process per workload, so each one's peak RSS is its own.
    for name in workloads:
        cmd = [bench, "--workload", name, "--seed", str(args.seed),
               "--seconds", repr(seconds), "--trace", str(args.trace)] + common
        if args.smoke:
            cmd.append("--smoke")
        rc = subprocess.run(cmd).returncode
        status = status or rc
    sys.exit(status)


if __name__ == "__main__":
    main()
