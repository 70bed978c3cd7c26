#!/usr/bin/env bash
# Telemetry gate (TelemetryQuick ctest): run the tiny table4 campaign twice
# — telemetry off, then with FPTC_TRACE + FPTC_METRICS + FPTC_LOG=2 — and
# assert the observability contract:
#
#   * stdout is bit-identical between the two runs: telemetry rides on
#     stderr and side files only, campaign tables never change,
#   * the trace export is valid JSON with balanced B/E pairs and contains
#     the executor/training span taxonomy,
#   * the metrics dump is valid JSON and carries the executor tallies, the
#     MemBudget peak gauge and the per-phase duration histograms,
#   * a bad FPTC_TRACE sink fails fast (EnvError before any unit runs),
#   * optionally (second argument = micro_benchmarks binary): the
#     disabled-path span overhead stays within 2% (+2 ns slack) of an
#     identical span-free workload, the fastest of 20 short repetitions of
#     each, run interleaved in random order so host load hits both alike.
#
# Usage, from the repo root (binary defaults to build/bench/table4_augmentations):
#
#   tests/run_telemetry.sh [path/to/table4_augmentations] [path/to/micro_benchmarks]
set -euo pipefail

cd "$(dirname "$0")/.."

BIN=${1:-build/bench/table4_augmentations}
MICRO=${2:-}
if [[ ! -x "$BIN" ]]; then
    echo "run_telemetry: FAIL: bench binary '$BIN' not found (build the default preset first)" >&2
    exit 1
fi

WORK=$(mktemp -d "${TMPDIR:-/tmp}/fptc_telemetry.XXXXXX")
trap 'rm -rf "$WORK"' EXIT INT TERM

# Both runs share one artifacts dir so the "artifact written to <path>"
# stdout line is identical; the telemetry run overwrites the baseline's.
mkdir -p "$WORK/artifacts"
QUICK_ENV=(FPTC_SPLITS=1 FPTC_SEEDS=1 FPTC_EPOCHS=1 FPTC_SAMPLES=0.1 FPTC_PER_CLASS=25
           FPTC_JOBS=2 FPTC_ARTIFACTS_DIR="$WORK/artifacts")

echo "run_telemetry: quick table4 baseline (telemetry off)..."
env "${QUICK_ENV[@]}" "$BIN" >"$WORK/stdout_off.txt" 2>"$WORK/stderr_off.txt"

echo "run_telemetry: quick table4 with FPTC_TRACE + FPTC_METRICS + FPTC_LOG=2..."
status=0
env "${QUICK_ENV[@]}" FPTC_LOG=2 \
    FPTC_TRACE="$WORK/trace.json" FPTC_METRICS="$WORK/metrics.json" \
    "$BIN" >"$WORK/stdout_on.txt" 2>"$WORK/stderr_on.txt" || status=$?
if [[ "$status" != 0 ]]; then
    echo "run_telemetry: FAIL: campaign with telemetry armed exited with $status" >&2
    tail -20 "$WORK/stderr_on.txt" >&2
    exit 1
fi

if ! cmp -s "$WORK/stdout_off.txt" "$WORK/stdout_on.txt"; then
    echo "run_telemetry: FAIL: stdout differs with telemetry on (tables must stay bit-identical)" >&2
    diff "$WORK/stdout_off.txt" "$WORK/stdout_on.txt" | head -20 >&2
    exit 1
fi

for sink in trace.json metrics.json metrics.json.prom; do
    if [[ ! -s "$WORK/$sink" ]]; then
        echo "run_telemetry: FAIL: telemetry sink $sink missing or empty" >&2
        exit 1
    fi
done

if command -v python3 >/dev/null 2>&1; then
    python3 - "$WORK/trace.json" "$WORK/metrics.json" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    trace = json.load(f)
events = trace["traceEvents"]
assert events, "trace has no events"
depth = {}
last_ts = {}
names = set()
for e in events:
    tid = e["tid"]
    names.add(e["name"])
    assert e["ts"] >= last_ts.get(tid, 0.0), f"ts not monotone for tid {tid}"
    last_ts[tid] = e["ts"]
    depth[tid] = depth.get(tid, 0) + (1 if e["ph"] == "B" else -1)
    assert depth[tid] >= 0, f"orphan E event for tid {tid}"
assert all(d == 0 for d in depth.values()), f"unbalanced B/E: {depth}"
for expected in ("unit", "attempt", "epoch", "forward", "backward", "optimizer"):
    assert expected in names, f"span '{expected}' missing from trace (have {sorted(names)})"

with open(sys.argv[2]) as f:
    metrics = json.load(f)
counters = metrics["counters"]
assert counters.get("fptc_executor_units_total", 0) > 0, "no units counted"
assert counters.get("fptc_executor_executed_total", 0) > 0, "no executions counted"
for knob in ("fptc_executor_retries_total", "fptc_executor_deferred_total",
             "fptc_executor_shrunk_total", "fptc_membudget_rejections_total"):
    assert knob in counters, f"counter {knob} missing"
assert "fptc_membudget_peak_bytes" in metrics["gauges"], "membudget peak gauge missing"
histograms = metrics["histograms"]
phase = [name for name in histograms if name.startswith("fptc_phase_")]
assert phase, "no per-phase histograms"
assert histograms[
    "fptc_phase_epoch_duration_ns"]["count"] > 0, "epoch histogram empty"
print(f"run_telemetry: trace OK ({len(events)} events, {len(names)} span names); "
      f"metrics OK ({len(counters)} counters, {len(phase)} phase histograms)")
EOF
else
    echo "run_telemetry: python3 not found, JSON structure checks skipped"
fi

echo "run_telemetry: bad FPTC_TRACE sink must fail fast..."
status=0
env "${QUICK_ENV[@]}" FPTC_TRACE="/nonexistent-fptc-dir/trace.json" \
    "$BIN" >"$WORK/stdout_bad.txt" 2>"$WORK/stderr_bad.txt" || status=$?
if [[ "$status" == 0 ]]; then
    echo "run_telemetry: FAIL: campaign accepted an unwritable FPTC_TRACE sink" >&2
    exit 1
fi
if ! grep -q "FPTC_TRACE" "$WORK/stderr_bad.txt"; then
    echo "run_telemetry: FAIL: rejection does not name the FPTC_TRACE knob" >&2
    tail -5 "$WORK/stderr_bad.txt" >&2
    exit 1
fi

if [[ -n "$MICRO" ]]; then
    if [[ ! -x "$MICRO" ]]; then
        echo "run_telemetry: FAIL: micro benchmark binary '$MICRO' not found" >&2
        exit 1
    fi
    echo "run_telemetry: disabled-path overhead gate (20 interleaved repetitions, min ns/op)..."
    env FPTC_ARTIFACTS_DIR="$WORK" "$MICRO" \
        --benchmark_filter='BM_SpanOverheadBaseline|BM_TelemetryDisabledSpan' \
        --benchmark_enable_random_interleaving=true \
        --benchmark_min_time=0.02 --benchmark_repetitions=20 \
        >"$WORK/micro_stdout.txt" 2>&1
    if [[ ! -s "$WORK/BENCH_micro.json" ]]; then
        echo "run_telemetry: FAIL: micro_benchmarks wrote no BENCH_micro.json" >&2
        exit 1
    fi
    python3 - "$WORK/BENCH_micro.json" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    runs = json.load(f)["benchmarks"]
def best(name):
    times = [r["ns_per_op"] for r in runs if r["name"] == name]
    assert times, f"benchmark {name} missing from BENCH_micro.json"
    return min(times)
baseline = best("BM_SpanOverheadBaseline")
disabled = best("BM_TelemetryDisabledSpan")
limit = baseline * 1.02 + 2.0
print(f"run_telemetry: baseline {baseline:.1f} ns/op, disabled span {disabled:.1f} ns/op, "
      f"limit {limit:.1f}")
assert disabled <= limit, (
    f"disabled-path span overhead regressed: {disabled:.1f} ns/op > "
    f"{limit:.1f} ns/op (baseline {baseline:.1f} * 1.02 + 2 ns)")
EOF
fi

echo "run_telemetry: PASS (stdout bit-identical; trace/metrics valid; bad sink fails fast)"
