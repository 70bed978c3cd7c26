#!/usr/bin/env bash
# Chaos torture harness for the streaming classification service.
#
# Drives the serve_throughput load generator through its fault classes and
# asserts the overload-resilience contract end to end (real process, real
# faults, no mocks):
#
#   * nominal: every flow classified, no sheds, accounting balanced,
#     BENCH_serve.json emitted with nonzero flows/sec and a finite p99,
#   * backend stall (FPTC_FAULT_SERVE_STALL_BACKEND): stalled batches are
#     cut by the batch deadline as typed `deadline` sheds, the circuit
#     breaker trips down the degradation ladder AND recovers via half-open
#     probes once the stalls stop,
#   * tiny ingest queue (FPTC_SERVE_QUEUE_DEPTH=300 + a one-flow ready
#     queue + backend stalls): the driver drops whole event batches as typed
#     `dropped_queue` counts, and flow accounting still balances,
#   * packet mangling (FPTC_FAULT_SERVE_MANGLE_PACKETS): every corrupted
#     event is quarantined at ingest validation — the binary cross-checks
#     quarantined == the stream's mangle oracle exactly,
#   * microbursts into a tight flow table (FPTC_FAULT_SERVE_BURST +
#     FPTC_SERVE_MEM_MB=1 + a window longer than the stream): LRU eviction
#     fires and every evicted flow is a typed `mem_budget` shed,
#   * combined chaos: all three fault classes at once — the service must
#     still exit 0 with every dropped flow typed and every MemBudget byte
#     credited back (serve_in_use_bytes=0),
#   * flight recorder: a SIGKILLed worker with FPTC_SERVE_POSTMORTEM set
#     must leave a sealable mmap ring that the supervisor turns into a
#     CRC-valid postmortem — fptc_flightrec must decode it and its
#     last_watermark (the snapshot-marker event) must equal the watermark
#     the restarted generation resumed from (BENCH_serve.json recovery),
#   * SLO kill: a supervised SIGKILL late in an overloaded stream with the
#     SLO on must restart exactly once, resume from the snapshot and keep
#     SLO compliance in [0, 1] (the SLO counters survive the restore, and
#     a worker whose self-check fails is not silently retried),
#   * live status: a nominal run with FPTC_SERVE_STATUS must export an
#     atomically-published JSON status file that fptc_servestat renders
#     (pid, tier, flows, per-stage latency lines).
#
# Every scenario asserts the run never aborts (exit 0, SERVE_OK printed)
# and the flow-accounting invariant held (accounted=1 in the summary line).
#
# Usage, from the repo root (binary defaults to build/bench/serve_throughput):
#
#   tests/run_serve_torture.sh [--quick] [--drift] [path/to/serve_throughput] \
#       [path/to/micro_benchmarks]
#
# When the optional micro_benchmarks binary is given, the fault suite also
# gates the *disabled* flight-recorder hot path within 2% (+2 ns slack) of
# the span-free baseline workload (same idiom as run_telemetry.sh).
#
# --quick (wired as the ServeTortureQuick ctest) shrinks the stream and
# skips the combined-chaos seed sweep; every scenario class still runs.
#
# --drift (wired as the ServeDriftQuick ctest) runs the drift/model-
# lifecycle suite INSTEAD of the fault suite:
#   * drift_nominal: drift monitor armed on a stationary stream — zero
#     alarms (the no-false-alarm side of the detector contract),
#   * drift_alarm: scripted step shift (FPTC_DRIFT_MODE=step) — the monitor
#     must alarm after the shift and the breaker ladder must respond,
#   * unknown_flood: unknown-app injection + open-set threshold — >= 90% of
#     unknown-truth flows routed to the typed `unknown` outcome, never
#     silently misclassified,
#   * canary_rollback / canary_reload: a corrupt (NaN-poisoned, CRC-valid)
#     candidate is rejected with a counted rollback and zero generation
#     bump; a good candidate is accepted exactly once,
#   * drift_kill: unknown flood + supervised SIGKILL — the extended
#     invariant (ingested == classified + unknown + sheds) holds across the
#     snapshot restore.
set -euo pipefail

cd "$(dirname "$0")/.."

QUICK=0
DRIFT=0
BIN=build/bench/serve_throughput
MICRO=""
NPOS=0
for arg in "$@"; do
    case "$arg" in
        --quick) QUICK=1 ;;
        --drift) DRIFT=1 ;;
        *)
            if [ "$NPOS" -eq 0 ]; then BIN="$arg"; else MICRO="$arg"; fi
            NPOS=$((NPOS + 1))
            ;;
    esac
done

if [ ! -x "$BIN" ]; then
    echo "run_serve_torture: bench binary '$BIN' not found (build the default preset first)" >&2
    exit 1
fi
BIN=$(readlink -f "$BIN")
# The introspection tools live next to the bench tree: build/bench -> build/tools.
TOOLS=$(dirname "$(dirname "$BIN")")/tools

WORK=$(mktemp -d "${TMPDIR:-/tmp}/fptc_serve_torture.XXXXXX")
trap 'rm -rf "$WORK"' EXIT INT TERM

if [ "$QUICK" = 1 ]; then
    FLOWS=120
else
    FLOWS=300
fi
BENCH_OUT="${FPTC_ARTIFACTS_DIR:-.}/BENCH_serve.json"

run_serve() {
    # $1 = scenario name, $2.. = extra env for this run.  The binary exits
    # nonzero on any broken invariant (accounting, MemBudget balance,
    # quarantine oracle, non-finite p99), so a plain status check is most of
    # the gate; BENCH_serve.json lands in the scenario dir.
    scenario="$1"; shift
    dir="$WORK/$scenario"
    mkdir -p "$dir"
    if ! (cd "$dir" && env FPTC_SERVE_FLOWS="$FLOWS" "$@" "$BIN" \
            >"$dir/stdout.txt" 2>"$dir/stderr.txt"); then
        echo "run_serve_torture: FAIL: scenario '$scenario' exited nonzero:" >&2
        tail -n 20 "$dir/stdout.txt" "$dir/stderr.txt" >&2 || true
        exit 1
    fi
    if ! grep -q '^SERVE_OK$' "$dir/stdout.txt"; then
        echo "run_serve_torture: FAIL: scenario '$scenario' printed no SERVE_OK" >&2
        exit 1
    fi
    if ! grep -q ' accounted=1' "$dir/stdout.txt"; then
        echo "run_serve_torture: FAIL: scenario '$scenario' accounting did not balance:" >&2
        grep '^serve:' "$dir/stdout.txt" >&2 || true
        exit 1
    fi
    if ! grep -q '^serve_in_use_bytes=0$' "$dir/stdout.txt"; then
        echo "run_serve_torture: FAIL: scenario '$scenario' leaked MemBudget bytes:" >&2
        grep '^serve_in_use_bytes=' "$dir/stdout.txt" >&2 || true
        exit 1
    fi
    if [ ! -s "$dir/BENCH_serve.json" ]; then
        echo "run_serve_torture: FAIL: scenario '$scenario' emitted no BENCH_serve.json" >&2
        exit 1
    fi
}

# summary_field <dir> <key>: pull one counter off the greppable summary line.
summary_field() {
    sed -n "s/.*[[:space:]]$2=\([0-9][0-9]*\).*/\1/p" "$1/stdout.txt" | head -1
}

require_pos() {
    # $1 = scenario, $2 = key, $3 = value
    if [ -z "$3" ] || [ "$3" -eq 0 ]; then
        echo "run_serve_torture: FAIL: scenario '$1' expected $2 > 0, got '${3:-missing}':" >&2
        grep '^serve:' "$WORK/$1/stdout.txt" >&2 || true
        exit 1
    fi
}

require_zero() {
    if [ -z "$3" ] || [ "$3" -ne 0 ]; then
        echo "run_serve_torture: FAIL: scenario '$1' expected $2 == 0, got '${3:-missing}':" >&2
        grep '^serve:' "$WORK/$1/stdout.txt" >&2 || true
        exit 1
    fi
}

# json_field <dir> <key>: pull one numeric field out of BENCH_serve.json.
json_field() {
    sed -n "s/.*\"$2\": \([0-9][0-9]*\).*/\1/p" "$1/BENCH_serve.json" | head -1
}

# ---- drift / model-lifecycle suite (--drift) --------------------------------
if [ "$DRIFT" = 1 ]; then
    # The detector operating point (lambda/delta/rate threshold) is tuned
    # against this exact deterministic stream: seed 1, 300 flows.  Keep the
    # flow count pinned even under --quick — the env list's *last*
    # FPTC_SERVE_FLOWS assignment wins over run_serve's default.
    DRIFT_ENV="FPTC_SERVE_FLOWS=300 FPTC_SERVE_SEED=1 FPTC_SERVE_READY_DEPTH=512
               FPTC_SERVE_DRIFT_LAMBDA=25 FPTC_SERVE_DRIFT_DELTA=0.1
               FPTC_SERVE_DRIFT_MIN=48
               FPTC_SERVE_DRIFT_RATE_THRESH=0.6 FPTC_SERVE_DRIFT_RATE_WINDOW=64"

    echo "run_serve_torture: drift monitor armed, stationary stream (no false alarms)..."
    run_serve drift_nominal $DRIFT_ENV
    require_zero drift_nominal drift_alarms \
        "$(summary_field "$WORK/drift_nominal" drift_alarms)"
    echo "run_serve_torture: drift_nominal ok (0 alarms on a stationary stream)"

    echo "run_serve_torture: scripted step shift at 50% of the arrival window..."
    run_serve drift_alarm $DRIFT_ENV \
        FPTC_DRIFT_MODE=step FPTC_DRIFT_AT=0.5 FPTC_DRIFT_MAGNITUDE=1.0
    require_pos drift_alarm drift_alarms "$(summary_field "$WORK/drift_alarm" drift_alarms)"
    # The breaker-ladder response: at least one drift-driven trip.
    require_pos drift_alarm trips "$(summary_field "$WORK/drift_alarm" trips)"
    first=$(json_field "$WORK/drift_alarm" first_alarm_sample)
    if [ -z "$first" ] || [ "$first" -lt 48 ]; then
        echo "run_serve_torture: FAIL: drift alarm before the warmup gate (first=$first)" >&2
        exit 1
    fi
    echo "run_serve_torture: drift_alarm ok" \
         "(alarms=$(summary_field "$WORK/drift_alarm" drift_alarms), first at sample $first)"

    echo "run_serve_torture: unknown-app flood against the open-set threshold..."
    run_serve unknown_flood $DRIFT_ENV \
        FPTC_DRIFT_UNKNOWN=0.5 FPTC_DRIFT_AT=0 FPTC_SERVE_UNKNOWN_THRESH=0.9
    total=$(json_field "$WORK/unknown_flood" unknown_truth_total)
    rejected=$(json_field "$WORK/unknown_flood" unknown_truth_rejected)
    require_pos unknown_flood unknown_truth "$total"
    if ! awk -v r="${rejected:-0}" -v t="${total:-1}" 'BEGIN { exit (r >= 0.9 * t) ? 0 : 1 }'; then
        echo "run_serve_torture: FAIL: unknown flood leaked past the threshold" \
             "(rejected=$rejected of $total)" >&2
        exit 1
    fi
    echo "run_serve_torture: unknown_flood ok ($rejected/$total unknown-truth flows rejected)"

    echo "run_serve_torture: corrupt reload candidate (NaN weight, valid CRC)..."
    rollback_dir="$WORK/canary_rollback"
    mkdir -p "$rollback_dir"
    run_serve canary_rollback $DRIFT_ENV \
        FPTC_SERVE_RELOAD="$rollback_dir/candidate.ckpt" FPTC_SERVE_RELOAD_EVERY=4 \
        FPTC_SERVE_SELFTEST_CANDIDATE=corrupt
    require_pos canary_rollback rollbacks "$(summary_field "$WORK/canary_rollback" rollbacks)"
    require_zero canary_rollback reloads "$(summary_field "$WORK/canary_rollback" reloads)"
    require_zero canary_rollback model_generation \
        "$(summary_field "$WORK/canary_rollback" model_generation)"
    echo "run_serve_torture: canary_rollback ok (corrupt candidate rejected," \
         "incumbent kept serving)"

    echo "run_serve_torture: good reload candidate (identical copy of the incumbent)..."
    reload_dir="$WORK/canary_reload"
    mkdir -p "$reload_dir"
    run_serve canary_reload $DRIFT_ENV \
        FPTC_SERVE_RELOAD="$reload_dir/candidate.ckpt" FPTC_SERVE_RELOAD_EVERY=4 \
        FPTC_SERVE_SELFTEST_CANDIDATE=good
    require_pos canary_reload reloads "$(summary_field "$WORK/canary_reload" reloads)"
    require_zero canary_reload rollbacks "$(summary_field "$WORK/canary_reload" rollbacks)"
    require_pos canary_reload model_generation \
        "$(summary_field "$WORK/canary_reload" model_generation)"
    echo "run_serve_torture: canary_reload ok (accepted once," \
         "model_generation=$(summary_field "$WORK/canary_reload" model_generation))"

    echo "run_serve_torture: unknown flood + supervised SIGKILL (invariant across restore)..."
    dk_dir="$WORK/drift_kill"
    mkdir -p "$dk_dir"
    run_serve drift_kill $DRIFT_ENV \
        FPTC_DRIFT_UNKNOWN=0.5 FPTC_DRIFT_AT=0 FPTC_SERVE_UNKNOWN_THRESH=0.9 \
        FPTC_SERVE_SUPERVISE=1 \
        FPTC_SERVE_SNAPSHOT="$dk_dir/snapshot.bin" FPTC_SERVE_SNAPSHOT_EVERY=400 \
        FPTC_FAULT_KILL_SERVE=1 FPTC_SERVE_MAX_RESTARTS=3 FPTC_SERVE_BACKOFF_MS=50
    if ! grep -q 'SUPERVISOR_OK restarts=1 degraded=0' "$dk_dir/stderr.txt"; then
        echo "run_serve_torture: FAIL: drift_kill missing SUPERVISOR_OK restarts=1:" >&2
        tail -10 "$dk_dir/stderr.txt" >&2 || true
        exit 1
    fi
    require_pos drift_kill restored "$(summary_field "$WORK/drift_kill" restored)"
    require_pos drift_kill unknown "$(summary_field "$WORK/drift_kill" unknown)"
    echo "run_serve_torture: drift_kill ok (restored, accounting balanced with" \
         "unknown=$(summary_field "$WORK/drift_kill" unknown))"

    echo "run_serve_torture: PASS (drift suite)"
    exit 0
fi

# ---- nominal: full service, no faults, nothing shed -------------------------
# The zero-shed assertion must test the *logic* (no faults -> no spurious
# sheds), not the machine: a sanitizer build classifies ~15x slower, and
# with the default 64-slot ready queue that alone fills the queue and
# forces queue_full sheds.  Provision the queue past the flow count so a
# slow classifier can only ever delay, never shed.
echo "run_serve_torture: nominal run ($FLOWS flows)..."
run_serve nominal FPTC_SERVE_READY_DEPTH=512
ingested=$(summary_field "$WORK/nominal" ingested)
classified=$(summary_field "$WORK/nominal" classified)
require_pos nominal ingested "$ingested"
if [ "$ingested" != "$classified" ]; then
    echo "run_serve_torture: FAIL: nominal run shed flows (ingested=$ingested classified=$classified)" >&2
    exit 1
fi
require_zero nominal quarantined "$(summary_field "$WORK/nominal" quarantined)"
# The nominal run's BENCH_serve.json is the published perf record.
mkdir -p "$(dirname "$BENCH_OUT")"
cp "$WORK/nominal/BENCH_serve.json" "$BENCH_OUT"
flows_per_sec=$(sed -n 's/.*"flows_per_sec": \([0-9.]*\).*/\1/p' "$BENCH_OUT")
if ! awk -v f="${flows_per_sec:-0}" 'BEGIN { exit (f > 0) ? 0 : 1 }'; then
    echo "run_serve_torture: FAIL: BENCH_serve.json flows_per_sec not positive ('$flows_per_sec')" >&2
    exit 1
fi
echo "run_serve_torture: nominal ok ($classified/$ingested classified, $flows_per_sec flows/sec)"

# ---- backend stall: deadline sheds + breaker trip AND recovery --------------
echo "run_serve_torture: backend stall (first 3 batches wedge, 100 ms deadline)..."
run_serve stall FPTC_FAULT_SERVE_STALL_BACKEND=3 \
    FPTC_SERVE_DEADLINE_MS=100 FPTC_SERVE_BREAKER_COOLDOWN=2
require_pos stall shed_deadline "$(summary_field "$WORK/stall" shed_deadline)"
require_pos stall trips "$(summary_field "$WORK/stall" trips)"
require_pos stall recoveries "$(summary_field "$WORK/stall" recoveries)"
echo "run_serve_torture: stall ok (trips=$(summary_field "$WORK/stall" trips)," \
     "recoveries=$(summary_field "$WORK/stall" recoveries)," \
     "shed_deadline=$(summary_field "$WORK/stall" shed_deadline))"

# ---- tiny ingest queue: whole-batch drops, every event counted --------------
# The wedged backend backs up through a one-flow ready queue into the
# assembler, so the driver's pushes into a 300-event ingest queue (two
# 256-event batches) time out and drop whole batches.  The flows those
# events belonged to must still balance (accounted=1, no MemBudget leak).
echo "run_serve_torture: tiny ingest queue (300 events, 1-flow ready queue, backend stalls)..."
run_serve tiny_queue FPTC_SERVE_QUEUE_DEPTH=300 FPTC_SERVE_READY_DEPTH=1 \
    FPTC_FAULT_SERVE_STALL_BACKEND=3 FPTC_SERVE_DEADLINE_MS=100 FPTC_SERVE_BREAKER_COOLDOWN=2
require_pos tiny_queue dropped_queue "$(summary_field "$WORK/tiny_queue" dropped_queue)"
echo "run_serve_torture: tiny_queue ok" \
     "(dropped_queue=$(summary_field "$WORK/tiny_queue" dropped_queue))"

# ---- packet mangling: quarantine every corrupted event ----------------------
# The exact oracle (quarantined == mangled) needs every event to reach
# validation.  The driver runs ahead and keeps the ingest queue full, so an
# assembler blocked for 20 ms on a full ready queue behind a slow (sanitizer)
# classifier drops a whole 256-event batch before validation.  Provision the
# ready queue past the flow count, as for nominal: a slow classifier can only
# delay, never drop.  Ingest drops have their own stage (tiny_queue).
echo "run_serve_torture: mangling ~10% of packet events..."
run_serve mangle FPTC_FAULT_SERVE_MANGLE_PACKETS=10 FPTC_SERVE_READY_DEPTH=512
require_pos mangle quarantined "$(summary_field "$WORK/mangle" quarantined)"
# quarantined == mangled oracle is asserted inside the binary (SERVE_OK);
# double-check the json agrees for belt and braces.
q=$(sed -n 's/.*"events_quarantined": \([0-9]*\).*/\1/p' "$WORK/mangle/BENCH_serve.json")
m=$(sed -n 's/.*"events_mangled": \([0-9]*\).*/\1/p' "$WORK/mangle/BENCH_serve.json")
if [ "$q" != "$m" ]; then
    echo "run_serve_torture: FAIL: quarantined=$q != mangled=$m in BENCH_serve.json" >&2
    exit 1
fi
echo "run_serve_torture: mangle ok ($q events quarantined, oracle exact)"

# ---- microburst into a tight flow table: typed mem_budget sheds -------------
echo "run_serve_torture: bursts into a 1 MB flow table (window pinned open)..."
run_serve burst FPTC_FAULT_SERVE_BURST=64 \
    FPTC_SERVE_MEM_MB=1 FPTC_SERVE_WINDOW_S=1000
require_pos burst shed_mem_budget "$(summary_field "$WORK/burst" shed_mem_budget)"
echo "run_serve_torture: burst ok (shed_mem_budget=$(summary_field "$WORK/burst" shed_mem_budget))"

# ---- hard SLO, nominal load: latency target met ----------------------------
# This scenario pins the no-false-positive side of the SLO machinery
# (violations stay zero, compliance == 1); slo_overload below pins the
# positive side.  The target must be generous relative to the *build*: a
# tsan classifier legitimately queues flows for tens of seconds, so a
# wall-clock target tight enough to be interesting on -O2 would assert
# machine speed, not admission logic.
echo "run_serve_torture: nominal run under a generous 60 s SLO..."
run_serve slo_nominal FPTC_SERVE_SLO_MS=60000 FPTC_SERVE_READY_DEPTH=512
require_zero slo_nominal slo_violations "$(summary_field "$WORK/slo_nominal" slo_violations)"
require_zero slo_nominal shed_slo "$(summary_field "$WORK/slo_nominal" shed_slo)"
compliance=$(sed -n 's/.*"compliance": \([0-9.]*\).*/\1/p' "$WORK/slo_nominal/BENCH_serve.json")
if ! awk -v c="${compliance:-0}" 'BEGIN { exit (c == 1) ? 0 : 1 }'; then
    echo "run_serve_torture: FAIL: nominal SLO compliance != 1 ('$compliance')" >&2
    exit 1
fi
echo "run_serve_torture: slo_nominal ok (compliance=$compliance)"

# ---- hard SLO under overload: CoDel sheds ahead of the breaker --------------
echo "run_serve_torture: 20 ms SLO while the backend wedges (6 batches)..."
run_serve slo_overload FPTC_FAULT_SERVE_STALL_BACKEND=6 \
    FPTC_SERVE_DEADLINE_MS=100 FPTC_SERVE_SLO_MS=20 FPTC_SERVE_BREAKER_COOLDOWN=2
require_pos slo_overload slo_violations "$(summary_field "$WORK/slo_overload" slo_violations)"
require_pos slo_overload shed_slo "$(summary_field "$WORK/slo_overload" shed_slo)"
echo "run_serve_torture: slo_overload ok" \
     "(violations=$(summary_field "$WORK/slo_overload" slo_violations)," \
     "shed_slo=$(summary_field "$WORK/slo_overload" shed_slo))"

# ---- supervised SIGKILL: restart from the durable snapshot ------------------
echo "run_serve_torture: SIGKILL the worker after its first snapshot commit..."
kill_dir="$WORK/kill"
mkdir -p "$kill_dir"
run_serve kill FPTC_SERVE_SUPERVISE=1 \
    FPTC_SERVE_SNAPSHOT="$kill_dir/snapshot.bin" FPTC_SERVE_SNAPSHOT_EVERY=400 \
    FPTC_FAULT_KILL_SERVE=1 FPTC_SERVE_MAX_RESTARTS=3 FPTC_SERVE_BACKOFF_MS=50
if ! grep -q 'SUPERVISOR_OK restarts=1 degraded=0' "$kill_dir/stderr.txt"; then
    echo "run_serve_torture: FAIL: kill scenario missing SUPERVISOR_OK restarts=1:" >&2
    tail -10 "$kill_dir/stderr.txt" >&2 || true
    exit 1
fi
require_pos kill generation "$(summary_field "$WORK/kill" generation)"
require_pos kill restored "$(summary_field "$WORK/kill" restored)"
if [ -e "$kill_dir/snapshot.bin" ]; then
    echo "run_serve_torture: FAIL: kill scenario left its snapshot behind after a clean finish" >&2
    exit 1
fi
echo "run_serve_torture: kill ok (restarted once, resumed from snapshot," \
     "restart_loss=$(summary_field "$WORK/kill" shed_restart_loss))"

# ---- supervised SIGKILL late in an overloaded stream, SLO on ----------------
# The restored generation sees few flows but inherits every SLO violation
# of the crashed one: slo_considered must be restored alongside
# slo_violations or compliance goes negative, the worker's self-check fails
# (exit 1), and the supervisor must report that failure rather than retry it
# into a cold-started "clean" run.  The stream is pinned to 120 flows
# (~66k events) so commit 150 of a 400-event cadence is ~90% through it.
echo "run_serve_torture: SIGKILL late in the stream with a 20 ms SLO under backend stalls..."
slo_kill_dir="$WORK/slo_kill"
mkdir -p "$slo_kill_dir"
run_serve slo_kill FPTC_SERVE_FLOWS=120 FPTC_SERVE_SUPERVISE=1 \
    FPTC_SERVE_SNAPSHOT="$slo_kill_dir/snapshot.bin" FPTC_SERVE_SNAPSHOT_EVERY=400 \
    FPTC_FAULT_KILL_SERVE=150 FPTC_SERVE_MAX_RESTARTS=3 FPTC_SERVE_BACKOFF_MS=50 \
    FPTC_FAULT_SERVE_STALL_BACKEND=6 FPTC_SERVE_DEADLINE_MS=100 FPTC_SERVE_SLO_MS=20 \
    FPTC_SERVE_BREAKER_COOLDOWN=2
if ! grep -q 'SUPERVISOR_OK restarts=1 degraded=0' "$slo_kill_dir/stderr.txt"; then
    echo "run_serve_torture: FAIL: slo_kill missing SUPERVISOR_OK restarts=1:" >&2
    tail -10 "$slo_kill_dir/stderr.txt" >&2 || true
    exit 1
fi
require_pos slo_kill restored "$(summary_field "$WORK/slo_kill" restored)"
require_pos slo_kill slo_violations "$(summary_field "$WORK/slo_kill" slo_violations)"
compliance=$(sed -n 's/.*"compliance": \(-\{0,1\}[0-9.e-]*\).*/\1/p' "$slo_kill_dir/BENCH_serve.json")
if ! awk -v c="${compliance:--1}" 'BEGIN { exit (c >= 0 && c <= 1) ? 0 : 1 }'; then
    echo "run_serve_torture: FAIL: slo_kill compliance outside [0, 1] ('$compliance')" >&2
    exit 1
fi
echo "run_serve_torture: slo_kill ok (restarted once, resumed from snapshot," \
     "compliance=$compliance)"

# ---- wedged classifier: watchdog hang-exit + supervised restart -------------
# The stall budget must sit well above one legitimate classify batch on the
# slowest build we gate (tsan runs the CNN ~15x slower and the classifier
# beats once per batch): a budget a fast machine would pick (~3 s) makes
# the *restarted* healthy generation hang-exit too, and the restarts=1
# assertion below then fails on machine speed rather than logic.
echo "run_serve_torture: wedge the classifier thread (watchdog stall budget 10 s)..."
hang_dir="$WORK/hang"
mkdir -p "$hang_dir"
run_serve hang FPTC_SERVE_SUPERVISE=1 \
    FPTC_SERVE_SNAPSHOT="$hang_dir/snapshot.bin" FPTC_SERVE_SNAPSHOT_EVERY=400 \
    FPTC_FAULT_SERVE_HANG=2 FPTC_SERVE_HANG_S=10 \
    FPTC_SERVE_MAX_RESTARTS=3 FPTC_SERVE_BACKOFF_MS=50
if ! grep -q 'SUPERVISOR_OK restarts=1 degraded=0' "$hang_dir/stderr.txt"; then
    echo "run_serve_torture: FAIL: hang scenario missing SUPERVISOR_OK restarts=1:" >&2
    tail -10 "$hang_dir/stderr.txt" >&2 || true
    exit 1
fi
if ! grep -q 'watchdog' "$hang_dir/stderr.txt"; then
    echo "run_serve_torture: FAIL: hang scenario has no watchdog stall report" >&2
    exit 1
fi
require_pos hang generation "$(summary_field "$WORK/hang" generation)"
echo "run_serve_torture: hang ok (watchdog hang-exit, restarted once," \
     "generation=$(summary_field "$WORK/hang" generation))"

# ---- flight recorder: SIGKILL -> sealed postmortem, decodable timeline ------
# FPTC_SERVE_POSTMORTEM arms the flight recorder with a file-backed mmap
# ring; when the supervisor reaps the SIGKILLed worker it seals that ring
# into a CRC-checked postmortem.  fptc_flightrec must decode it, and the
# last snapshot-marker event it recorded (last_watermark) must equal the
# watermark the restarted generation restored from — the consistent-cut
# contract between the recorder and the durable snapshot.
echo "run_serve_torture: SIGKILL with the flight recorder armed (postmortem seal)..."
pm_dir="$WORK/flightrec_kill"
mkdir -p "$pm_dir"
run_serve flightrec_kill FPTC_SERVE_SUPERVISE=1 \
    FPTC_SERVE_SNAPSHOT="$pm_dir/snapshot.bin" FPTC_SERVE_SNAPSHOT_EVERY=400 \
    FPTC_SERVE_POSTMORTEM="$pm_dir/postmortem.bin" \
    FPTC_FAULT_KILL_SERVE=1 FPTC_SERVE_MAX_RESTARTS=3 FPTC_SERVE_BACKOFF_MS=50
if ! grep -q 'SUPERVISOR_OK restarts=1 degraded=0' "$pm_dir/stderr.txt"; then
    echo "run_serve_torture: FAIL: flightrec_kill missing SUPERVISOR_OK restarts=1:" >&2
    tail -10 "$pm_dir/stderr.txt" >&2 || true
    exit 1
fi
if [ ! -s "$pm_dir/postmortem.bin" ]; then
    echo "run_serve_torture: FAIL: flightrec_kill left no postmortem file" >&2
    exit 1
fi
if [ ! -x "$TOOLS/fptc_flightrec" ]; then
    echo "run_serve_torture: FAIL: fptc_flightrec not built at $TOOLS/fptc_flightrec" >&2
    exit 1
fi
if ! "$TOOLS/fptc_flightrec" "$pm_dir/postmortem.bin" >"$pm_dir/flightrec.txt" 2>&1; then
    echo "run_serve_torture: FAIL: fptc_flightrec refused the sealed postmortem:" >&2
    tail -5 "$pm_dir/flightrec.txt" >&2 || true
    exit 1
fi
if ! grep -q '^postmortem: reason=sigkill_reap' "$pm_dir/flightrec.txt"; then
    echo "run_serve_torture: FAIL: decoded postmortem reason is not sigkill_reap:" >&2
    head -1 "$pm_dir/flightrec.txt" >&2 || true
    exit 1
fi
if ! grep -q '^event ring=' "$pm_dir/flightrec.txt"; then
    echo "run_serve_torture: FAIL: decoded postmortem holds no flow events" >&2
    exit 1
fi
pm_watermark=$(sed -n 's/.*last_watermark=\([0-9][0-9]*\).*/\1/p' "$pm_dir/flightrec.txt" | head -1)
restored_watermark=$(json_field "$pm_dir" watermark)
if [ -z "$pm_watermark" ] || [ "$pm_watermark" != "$restored_watermark" ]; then
    echo "run_serve_torture: FAIL: postmortem last_watermark '$pm_watermark' !=" \
         "restored snapshot watermark '$restored_watermark'" >&2
    exit 1
fi
if [ -e "$pm_dir/postmortem.bin.ring" ]; then
    echo "run_serve_torture: FAIL: clean finish left the flight-recorder ring file behind" >&2
    exit 1
fi
echo "run_serve_torture: flightrec_kill ok (postmortem sealed + decoded," \
     "last_watermark=$pm_watermark matches the restored snapshot)"

# ---- live status: atomic JSON export + fptc_servestat rendering -------------
echo "run_serve_torture: nominal run exporting live status (fptc_servestat)..."
st_dir="$WORK/status"
mkdir -p "$st_dir"
run_serve status FPTC_SERVE_READY_DEPTH=512 FPTC_SERVE_FLIGHTREC=1 \
    FPTC_SERVE_STATUS="$st_dir/status.json" FPTC_SERVE_STATUS_S=0.05
status_writes=$(summary_field "$WORK/status" status_writes)
require_pos status status_writes "$status_writes"
if [ ! -s "$st_dir/status.json" ]; then
    echo "run_serve_torture: FAIL: status scenario exported no status file" >&2
    exit 1
fi
if [ ! -x "$TOOLS/fptc_servestat" ]; then
    echo "run_serve_torture: FAIL: fptc_servestat not built at $TOOLS/fptc_servestat" >&2
    exit 1
fi
if ! "$TOOLS/fptc_servestat" "$st_dir/status.json" >"$st_dir/servestat.txt" 2>&1; then
    echo "run_serve_torture: FAIL: fptc_servestat refused the status file:" >&2
    tail -5 "$st_dir/servestat.txt" >&2 || true
    exit 1
fi
for key in pid= tier= flows_classified= frec_events=; do
    if ! grep -q "$key" "$st_dir/servestat.txt"; then
        echo "run_serve_torture: FAIL: fptc_servestat output missing '$key':" >&2
        cat "$st_dir/servestat.txt" >&2 || true
        exit 1
    fi
done
stage_lines=$(grep -c '^stage name=' "$st_dir/servestat.txt" || true)
if [ "$stage_lines" -ne 4 ]; then
    echo "run_serve_torture: FAIL: expected 4 stage latency lines, got $stage_lines" >&2
    exit 1
fi
echo "run_serve_torture: status ok ($status_writes status writes," \
     "$(grep '^servestat:' "$st_dir/servestat.txt" | head -1 | cut -c1-70)...)"

# ---- combined chaos: all fault classes at once ------------------------------
if [ "$QUICK" = 1 ]; then
    SEEDS="1"
else
    SEEDS="1 2 3"
fi
# The ready queue is provisioned past the flow count for the same reason as
# in mangle: the quarantine oracle needs every event to reach validation.
for seed in $SEEDS; do
    echo "run_serve_torture: combined chaos (stall + mangle + burst, seed $seed)..."
    run_serve "chaos$seed" FPTC_SERVE_SEED="$seed" FPTC_FAULT_SEED="$seed" \
        FPTC_SERVE_READY_DEPTH=512 \
        FPTC_FAULT_SERVE_STALL_BACKEND=3 FPTC_FAULT_SERVE_MANGLE_PACKETS=5 \
        FPTC_FAULT_SERVE_BURST=32 \
        FPTC_SERVE_DEADLINE_MS=100 FPTC_SERVE_BREAKER_COOLDOWN=2 \
        FPTC_SERVE_MEM_MB=1 FPTC_SERVE_WINDOW_S=1000
    require_pos "chaos$seed" trips "$(summary_field "$WORK/chaos$seed" trips)"
    require_pos "chaos$seed" quarantined "$(summary_field "$WORK/chaos$seed" quarantined)"
    echo "run_serve_torture: chaos seed $seed ok:" \
         "$(grep '^serve:' "$WORK/chaos$seed/stdout.txt")"
done

# ---- disabled-recorder overhead gate (micro_benchmarks pair) ----------------
# BM_FlightRecDisabled runs the real frec_note() call with the gate off on
# top of the span-free BM_SpanOverheadBaseline workload; the disabled hot
# path must stay within 2% (+2 ns slack) of that baseline — the same
# contract and gate idiom as the telemetry span pair in run_telemetry.sh.
# The pair's 20 short repetitions run interleaved in random order, so load
# from other processes falls on both sides alike; the gate compares the
# fastest repetition of each.
if [ -n "$MICRO" ]; then
    if [ ! -x "$MICRO" ]; then
        echo "run_serve_torture: FAIL: micro benchmark binary '$MICRO' not found" >&2
        exit 1
    fi
    echo "run_serve_torture: disabled flight-recorder overhead gate (20 interleaved reps, min ns/op)..."
    micro_dir="$WORK/micro"
    mkdir -p "$micro_dir"
    env FPTC_ARTIFACTS_DIR="$micro_dir" "$MICRO" \
        --benchmark_filter='BM_SpanOverheadBaseline|BM_FlightRecDisabled' \
        --benchmark_enable_random_interleaving=true \
        --benchmark_min_time=0.02 --benchmark_repetitions=20 \
        >"$micro_dir/micro_stdout.txt" 2>&1
    if [ ! -s "$micro_dir/BENCH_micro.json" ]; then
        echo "run_serve_torture: FAIL: micro_benchmarks wrote no BENCH_micro.json" >&2
        exit 1
    fi
    python3 - "$micro_dir/BENCH_micro.json" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    runs = json.load(f)["benchmarks"]
def best(name):
    times = [r["ns_per_op"] for r in runs if r["name"] == name]
    assert times, f"benchmark {name} missing from BENCH_micro.json"
    return min(times)
baseline = best("BM_SpanOverheadBaseline")
disabled = best("BM_FlightRecDisabled")
limit = baseline * 1.02 + 2.0
print(f"run_serve_torture: baseline {baseline:.1f} ns/op, disabled recorder "
      f"{disabled:.1f} ns/op, limit {limit:.1f}")
assert disabled <= limit, (
    f"disabled flight-recorder overhead regressed: {disabled:.1f} ns/op > "
    f"{limit:.1f} ns/op (baseline {baseline:.1f} * 1.02 + 2 ns)")
EOF
fi

echo "run_serve_torture: PASS"
