#!/usr/bin/env bash
# Build and run the test suite under sanitizers.  Seven stages:
#
#   1. the full suite under AddressSanitizer + UBSan ("asan-ubsan" preset) —
#      excluding the CrashTortureQuick / MemBudgetQuick bench gates, whose
#      sanitized binaries would blow the time budget (they run against the
#      optimized build in stages 3-4),
#   2. the concurrency-sensitive executor / cancellation / journal / memory
#      accountant tests under ThreadSanitizer ("tsan" preset),
#   3. a bounded (<60s) kill-point torture sweep (tests/run_torture.sh
#      --quick) against the default optimized build: crash at the first
#      durable writes, resume from the journal, assert bit-identical tables,
#      then SIGTERM a campaign and assert its cooperative shutdown,
#   4. the resource-governance gate (tests/run_membudget.sh) against the
#      same build: a tight FPTC_MEM_BUDGET_MB must degrade gracefully with
#      peak <= budget and balanced accounting,
#   5. the telemetry gate (tests/run_telemetry.sh) against the tsan build:
#      tracing + metrics armed on a threaded campaign must be race-free,
#      keep stdout bit-identical and export valid trace/metrics JSON (the
#      overhead micro-gate is skipped — sanitized timings are meaningless),
#   6. the overload-resilience gate (tests/run_serve_torture.sh --quick)
#      against BOTH sanitized builds: the streaming classifier under
#      backend stalls, mangled packets and microbursts must never abort,
#      type every shed and balance the MemBudget — race-free under tsan,
#      leak-free under asan; the flight-recorder postmortem seal/decode
#      and live-status scenarios run in the same sweep (the overhead
#      micro-gate is skipped — no micro_benchmarks arg is passed),
#   7. the drift / model-lifecycle gate (tests/run_serve_torture.sh
#      --quick --drift) against BOTH sanitized builds: no false drift
#      alarms on a stationary stream, alarms after a scripted shift,
#      unknown-flood open-set rejection, and the canary reload/rollback
#      paths — the hot model swap must be race-free under tsan and the
#      scratch canary network leak-free under asan.
#
# Usage, from the repo root:
#
#   tests/run_sanitized.sh [extra ctest args...]
#
# e.g. tests/run_sanitized.sh -R Serialize  (extra args apply to the
# asan stage; the tsan, torture, membudget and telemetry stages always run
# their fixed selection)
set -euo pipefail

cd "$(dirname "$0")/.."

cmake --preset asan-ubsan
cmake --build --preset asan-ubsan -j "$(nproc)"
ctest --preset asan-ubsan -j "$(nproc)" -E 'CrashTortureQuick|MemBudgetQuick|TelemetryQuick|ServeTortureQuick|ServeDriftQuick' "$@"

cmake --preset tsan
cmake --build --preset tsan -j "$(nproc)" --target test_executor test_util test_membudget test_telemetry test_serve test_serve_recovery test_serve_drift test_serve_flightrec
ctest --preset tsan -j "$(nproc)" \
    -R 'Executor|CancelToken|Journal|Backoff|ExceptionTaxonomy|MemBudget|Charge|Tracing|Histogram|Metrics|EnvValidation|Scavenge|Shutdown|Serve|ServeDrift|Drift|Calibration|EventRing' \
    -E 'MemBudgetQuick|TelemetryQuick|ServeTortureQuick|ServeDriftQuick'

cmake --preset default
cmake --build --preset default -j "$(nproc)" --target table4_augmentations
if [[ ! -x build/bench/table4_augmentations ]]; then
    echo "run_sanitized: FAIL: build/bench/table4_augmentations missing after build" >&2
    exit 1
fi
tests/run_torture.sh --quick build/bench/table4_augmentations
tests/run_membudget.sh build/bench/table4_augmentations

cmake --build --preset tsan -j "$(nproc)" --target table4_augmentations
tests/run_telemetry.sh build-tsan/bench/table4_augmentations

cmake --build --preset asan-ubsan -j "$(nproc)" --target serve_throughput fptc_flightrec fptc_servestat
cmake --build --preset tsan -j "$(nproc)" --target serve_throughput fptc_flightrec fptc_servestat
tests/run_serve_torture.sh --quick build-asan/bench/serve_throughput
tests/run_serve_torture.sh --quick build-tsan/bench/serve_throughput

tests/run_serve_torture.sh --quick --drift build-asan/bench/serve_throughput
tests/run_serve_torture.sh --quick --drift build-tsan/bench/serve_throughput
