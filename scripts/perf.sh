#!/usr/bin/env bash
# Perf trajectory: runs the repo benchmark untraced (perfbench/run.py
# --trace 0) once per workload and appends one row per run to
# BENCH_perf.json at the repo root — commit, workload, seed and the three
# end-to-end metrics (setup_s, job_s, peak_rss_mb). Rows accumulate across
# commits, so the file is the benchmark's history on one machine; compare
# rows only when they were measured on the same hardware.
#
# Usage: scripts/perf.sh [seed] [seconds] [workload...]
#   seed       benchmark seed (default 3)
#   seconds    measuring time per workload (default 12)
#   workload   any of control closed_loop packet (default: all three)
# A run whose digest check fails (result "correct": false) is not recorded
# and makes the script exit nonzero.
set -euo pipefail
cd "$(dirname "$0")/.."

SEED="${1:-3}"
SECONDS_PER_RUN="${2:-12}"
shift $(( $# < 2 ? $# : 2 ))
WORKLOADS=("$@")
[ "${#WORKLOADS[@]}" -gt 0 ] || WORKLOADS=(control closed_loop packet)

COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
if [ "${COMMIT}" != unknown ] && ! git diff --quiet HEAD -- src perfbench; then
  COMMIT="${COMMIT}-dirty"
fi

for workload in "${WORKLOADS[@]}"; do
  result="$(python3 perfbench/run.py --workload "${workload}" --seed "${SEED}" \
    --seconds "${SECONDS_PER_RUN}" --trace 0 | tail -n 1)"
  python3 - BENCH_perf.json "${COMMIT}" "${workload}" "${SEED}" "${result}" <<'PY'
import json
import os
import sys

path, commit, workload, seed, result = sys.argv[1:]
run = json.loads(result)
if not run["correct"]:
    sys.exit(f"perf.sh: {workload} seed {seed} failed its digest check")
row = {"commit": commit, "workload": workload, "seed": int(seed)}
for name in ("setup_s", "job_s", "peak_rss_mb"):
    row[name] = run["metrics"][name]["value"]
rows = []
if os.path.exists(path):
    with open(path) as f:
        rows = json.load(f)
rows.append(row)
with open(path, "w") as f:
    f.write("[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]\n")
print(json.dumps(row))
PY
done
