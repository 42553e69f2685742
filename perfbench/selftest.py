#!/usr/bin/env python3
"""The benchmark's own checks.

    python3 perfbench/selftest.py [--seeds 1,2] [--workloads control,...]
    python3 perfbench/selftest.py --write-reference --seeds 1-10

Builds the driver and the harness tests, runs the harness tests, then runs
one round of each workload per seed at one worker thread and at the
benchmark's worker count and checks that every digest agrees across the two
thread counts and with perfbench/reference/digests.txt. --write-reference
records the agreed digests in that file instead (existing entries for other
workloads and seeds are kept).
"""
import argparse
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference", "digests.txt")
WORKLOADS = ("control", "closed_loop", "packet")


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j",
                    str(max(1, min(4, os.cpu_count() or 1)))],
                   stdout=sys.stderr, check=True)


def one_round(driver, workload, seed, threads, reference):
    """Digest and failed-operation count of a single untraced round."""
    cmd = [driver, "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", "0", "--threads", str(threads)]
    if reference:
        cmd += ["--reference", REFERENCE]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True)
    digest = re.search(r"digest\s+([0-9a-f]{16})", out.stdout).group(1)
    failed = int(re.search(r'"failed": (\d+)', out.stdout).group(1))
    return digest, failed


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1", type=seed_list)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--threads", type=int, default=4,
                        help="the benchmark's worker count to compare "
                             "against one thread")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_root, "perfbench")
    build(build_dir)
    # The tests log the failures they provoke on purpose; show the log only
    # when a check fails.
    tests = subprocess.run([os.path.join(build_dir, "perfbench_tests")],
                           cwd=build_dir, capture_output=True, text=True)
    ok = tests.returncode == 0
    print(tests.stdout + ("" if ok else tests.stderr), end="")

    driver = os.path.join(build_dir, "perfbench_driver")
    agreed = {}
    for workload in args.workloads.split(","):
        for seed in args.seeds:
            one, one_failed = one_round(driver, workload, seed, 1,
                                        not args.write_reference)
            many, many_failed = one_round(driver, workload, seed,
                                          args.threads,
                                          not args.write_reference)
            good = one == many and one_failed == 0 and many_failed == 0
            print(f"{workload:12s} seed {seed:3d}  threads 1: {one}  "
                  f"threads {args.threads}: {many}  failed ops: "
                  f"{one_failed}+{many_failed}  {'ok' if good else 'FAIL'}")
            ok = ok and good
            agreed[(workload, seed)] = one

    if args.write_reference and ok:
        entries = {}
        if os.path.exists(REFERENCE):
            with open(REFERENCE) as f:
                for line in f:
                    fields = line.split()
                    if len(fields) == 3 and not line.startswith("#"):
                        entries[(fields[0], int(fields[1]))] = fields[2]
        entries.update(agreed)
        with open(REFERENCE, "w") as f:
            f.write("# perfbench reference digests: <workload> <seed> "
                    "<digest>\n# Written by perfbench/selftest.py "
                    "--write-reference.\n")
            for (workload, seed), digest in sorted(entries.items()):
                f.write(f"{workload} {seed} {digest}\n")
        print(f"wrote {len(agreed)} digests to {REFERENCE}")
    print("selftest:", "ok" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
