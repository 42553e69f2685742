#!/usr/bin/env bash
# The observability determinism contract, end to end: for a fixed seed the
# deterministic metrics export — and everything else the bench records —
# must be byte-identical across thread counts. Runs one bench at
# --threads 1/2/8 with --metrics-out and --trace-out enabled and diffs the
# metrics JSON, the BENCH json (metrics block folded in), and stdout.
# When tests/golden/metrics_<bench-name>.json exists, the --threads 1
# metrics export must also match it byte for byte, so the set of metrics a
# bench exports (every sink a pipeline attaches) is pinned, not just its
# thread-count invariance.
#
# usage: check_obs_determinism.sh <bench-binary> <bench-name> [bench-args...]
# Extra arguments are passed through to every invocation (e.g. --quick).
set -u

bin="$1"
name="$2"
shift 2
golden="$(cd "$(dirname "$0")" && pwd)/golden/metrics_$name.json"

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT
cd "$workdir"

for t in 1 2 8; do
  if ! "$bin" "$@" --threads "$t" \
      --metrics-out "metrics_$t.json" \
      --trace-out "trace_$t.json" \
      --json-out "bench_$t.json" > "stdout_$t.txt" 2> "stderr_$t.txt"; then
    echo "FAIL: $name --threads $t exited nonzero" >&2
    cat "stderr_$t.txt" >&2
    exit 1
  fi
  # The trace is scheduling-dependent by design (not diffed), but it must
  # exist and be non-empty whenever --trace-out is passed.
  if ! [ -s "trace_$t.json" ]; then
    echo "FAIL: trace_$t.json missing or empty" >&2
    exit 1
  fi
done

fail=0
for t in 2 8; do
  if ! diff -u metrics_1.json "metrics_$t.json"; then
    echo "FAIL: metrics JSON differs between --threads 1 and $t" >&2
    fail=1
  fi
  if ! diff -u bench_1.json "bench_$t.json"; then
    echo "FAIL: BENCH json differs between --threads 1 and $t" >&2
    fail=1
  fi
  # stdout embeds the --json-out filename; normalize it before comparing.
  sed "s/bench_$t\\.json/bench_1.json/" "stdout_$t.txt" | \
      diff -u stdout_1.txt - || {
    echo "FAIL: stdout differs between --threads 1 and $t" >&2
    fail=1
  }
done
if [ -f "$golden" ] && ! diff -u "$golden" metrics_1.json; then
  echo "FAIL: metrics JSON differs from $golden" >&2
  fail=1
fi
exit $fail
