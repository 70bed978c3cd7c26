#!/usr/bin/env bash
# Kill-point torture harness for the durable I/O layer.
#
# Sweeps FPTC_FAULT_CRASH_AT_WRITE over K = 1..N against a tiny table4
# campaign: each crashed run dies with a hard _exit(86) at its K-th durable
# write, tearing whatever artifact was in flight.  After every crash the
# harness relaunches with the same FPTC_JOURNAL and asserts:
#
#   * the resumed run's stdout tables are BIT-IDENTICAL to an uninterrupted
#     golden run (only the executor's executed/resumed summary line and
#     stderr log lines may differ),
#   * the CSV / table artifacts are byte-identical to the golden run's,
#   * no final-named artifact is torn, empty or stale: after a crash, every
#     non-temp file is either absent or a fully valid previous generation
#     (journal lines must all parse except possibly a torn tail),
#   * it also greps src/ to assert no persistence bypasses the durable
#     layer via a raw std::ofstream, and no binary format bypasses the
#     shared codec (util/codec.hpp) with its own byte helpers or a
#     .rdbuf() whole-file read, and no training loop besides
#     core::run_guarded drives a DivergenceGuard,
#   * cooperative shutdown: a campaign sent SIGTERM mid-run must exit
#     128+15, journal a __shutdown__ record and flush a valid metrics JSON
#     (send-the-signal-then-inspect, no mocks).
#
# Usage, from the repo root (binary defaults to build/bench/table4_augmentations):
#
#   tests/run_torture.sh [--quick] [path/to/table4_augmentations]
#
# --quick sweeps only K = 1..3 (wired as the CrashTortureQuick ctest);
# the full sweep walks K upward until a run completes without crashing.
set -euo pipefail

cd "$(dirname "$0")/.."

QUICK=0
BIN=build/bench/table4_augmentations
for arg in "$@"; do
    case "$arg" in
        --quick) QUICK=1 ;;
        *) BIN="$arg" ;;
    esac
done

if [ ! -x "$BIN" ]; then
    echo "run_torture: bench binary '$BIN' not found (build the default preset first)" >&2
    exit 1
fi

# ---- static gate: all persistence must route through util/durable ----------
if grep -rn "std::ofstream" src/ --include='*.cpp' --include='*.hpp' \
        | grep -v "durable" >/dev/null; then
    echo "run_torture: FAIL: raw std::ofstream persistence found in src/ — route it through util::DurableFile:" >&2
    grep -rn "std::ofstream" src/ --include='*.cpp' --include='*.hpp' | grep -v "durable" >&2
    exit 1
fi
echo "run_torture: static gate ok (no raw std::ofstream persistence in src/)"

# ---- static gate: all binary (de)coding must route through util/codec ------
# No file outside util/codec.* and util/durable.* may define its own byte
# helpers (put_u32/put_u64, a Reader struct, a CRC stream reader/writer) or
# read a whole file with .rdbuf(); util::ByteWriter/ByteReader, frame/unframe
# and util::read_file are the one copy.
CODEC_PATTERN='void[[:space:]]+put_u(32|64)[[:space:]]*\(|(struct|class)[[:space:]]+(Reader|CrcReader|CrcWriter)\b|\.rdbuf\(\)'
CODEC_HITS=$(grep -rnE "$CODEC_PATTERN" src/ --include='*.cpp' --include='*.hpp' \
        | grep -vE '^src/util/(include/fptc/util/)?(codec|durable)\.(cpp|hpp):' || true)
if [ -n "$CODEC_HITS" ]; then
    echo "run_torture: FAIL: hand-rolled byte codec or whole-file read in src/ — use util/codec.hpp:" >&2
    echo "$CODEC_HITS" >&2
    exit 1
fi
echo "run_torture: static gate ok (no hand-rolled byte codec or .rdbuf() read in src/)"

# ---- static gate: one guarded training loop ---------------------------------
# Every training method runs through core::run_guarded (src/core/loop.cpp).
# No other file under src/ may construct a DivergenceGuard or drive one with
# step_diverged, rollback or retry_seed; the guard's own files declare and
# define them.
GUARD_PATTERN='DivergenceGuard([[:space:]]+[A-Za-z_][A-Za-z0-9_]*)?[[:space:]]*[({]|<DivergenceGuard>|(\.|->)(step_diverged|rollback|retry_seed)[[:space:]]*\('
GUARD_HITS=$(grep -rnE "$GUARD_PATTERN" src/ --include='*.cpp' --include='*.hpp' \
        | grep -vE '^src/core/(loop\.cpp|guard\.cpp|include/fptc/core/guard\.hpp):' || true)
if [ -n "$GUARD_HITS" ]; then
    echo "run_torture: FAIL: a training loop outside src/core/loop.cpp drives a DivergenceGuard — run it through core::run_guarded:" >&2
    echo "$GUARD_HITS" >&2
    exit 1
fi
echo "run_torture: static gate ok (one guarded training loop in src/core/loop.cpp)"

WORK=$(mktemp -d "${TMPDIR:-/tmp}/fptc_torture.XXXXXX")
trap 'rm -rf "$WORK"' EXIT INT TERM

# Tiny campaign: 7 augmentations x {32,64}, 1 split x 1 seed = 14 units, on
# a shrunken dataset and training split (the pretraining partition's
# smallest class holds ~59 flows at FPTC_SAMPLES=0.1, so a 25-per-class
# split still fits) to keep each run fast on a single core.
SCALE="FPTC_SPLITS=1 FPTC_SEEDS=1 FPTC_EPOCHS=1 FPTC_SAMPLES=0.1 FPTC_PER_CLASS=25"
JOBS="${FPTC_JOBS:-$(nproc)}"

run_campaign() {
    # $1 = work dir, $2.. = extra env (VAR=value) for this run
    dir="$1"; shift
    mkdir -p "$dir"
    env $SCALE FPTC_JOBS="$JOBS" \
        FPTC_JOURNAL="$dir/journal.jsonl" FPTC_ARTIFACTS_DIR="$dir" \
        "$@" "$BIN" >"$dir/stdout.txt" 2>"$dir/stderr.txt"
}

# The executor summary reports executed vs resumed counts, and the artifact
# confirmation line embeds the per-run directory: both legitimately differ
# between a golden run and a crash+resume run; everything else on stdout
# must match bit-for-bit.
filter_stdout() {
    grep -v -e '^executor\[' -e '^per-run artifact written to ' "$1" > "$1.filtered"
}

# ---- golden (uninterrupted) run ---------------------------------------------
echo "run_torture: golden run (14 units, $JOBS jobs)..."
GOLD="$WORK/golden"
run_campaign "$GOLD"
filter_stdout "$GOLD/stdout.txt"
for artifact in table4_runs.csv table4_script.txt table4_human.txt table4_leftover.txt; do
    if [ ! -s "$GOLD/$artifact" ]; then
        echo "run_torture: FAIL: golden run produced no $artifact" >&2
        exit 1
    fi
done

check_no_torn_artifacts() {
    # $1 = dir. After a crash, every FINAL-named file must be complete:
    # temps (*.tmp.*) are legitimate crash debris, but a renamed artifact may
    # never be empty, and every journal line except a possibly-torn final
    # one must be a complete {...} object.
    for f in "$1"/*; do
        [ -f "$f" ] || continue
        case "$(basename "$f")" in
            *.tmp.*|stdout.txt|stderr.txt) continue ;;
        esac
        if [ ! -s "$f" ]; then
            echo "run_torture: FAIL: empty renamed artifact $f after crash" >&2
            exit 1
        fi
    done
    if [ -f "$1/journal.jsonl" ]; then
        # All lines but the last must parse as {...}; a torn tail is allowed.
        if sed '$d' "$1/journal.jsonl" | grep -vq '^{.*}$'; then
            echo "run_torture: FAIL: torn non-final journal line in $1/journal.jsonl" >&2
            exit 1
        fi
    fi
}

# ---- kill-point sweep -------------------------------------------------------
if [ "$QUICK" = 1 ]; then MAX_K=3; else MAX_K=64; fi
K=1
SWEPT=0
while [ "$K" -le "$MAX_K" ]; do
    dir="$WORK/k$K"
    status=0
    run_campaign "$dir" FPTC_FAULT_CRASH_AT_WRITE="$K" || status=$?
    if [ "$status" = 0 ]; then
        # K exceeded the run's total durable writes: the campaign completed
        # uninterrupted and the sweep has covered every kill point.
        echo "run_torture: K=$K exceeds total durable writes; sweep complete"
        break
    fi
    if [ "$status" != 86 ]; then
        echo "run_torture: FAIL: K=$K exited with $status (expected crash code 86)" >&2
        exit 1
    fi
    check_no_torn_artifacts "$dir"

    # Relaunch with the same journal: resumed + executed must reproduce the
    # golden tables bit-for-bit.
    run_campaign "$dir"
    filter_stdout "$dir/stdout.txt"
    if ! cmp -s "$GOLD/stdout.txt.filtered" "$dir/stdout.txt.filtered"; then
        echo "run_torture: FAIL: K=$K resumed stdout differs from golden:" >&2
        diff "$GOLD/stdout.txt.filtered" "$dir/stdout.txt.filtered" >&2 || true
        exit 1
    fi
    for artifact in table4_runs.csv table4_script.txt table4_human.txt table4_leftover.txt; do
        if ! cmp -s "$GOLD/$artifact" "$dir/$artifact"; then
            echo "run_torture: FAIL: K=$K resumed artifact $artifact differs from golden" >&2
            exit 1
        fi
    done
    resumed=$(grep -c '^{' "$dir/journal.jsonl" || true)
    echo "run_torture: K=$K ok (crash -> resume bit-identical; journal $resumed line(s))"
    SWEPT=$((SWEPT + 1))
    rm -rf "$dir"
    K=$((K + 1))
done

if [ "$SWEPT" -lt 1 ]; then
    echo "run_torture: FAIL: no kill point was actually exercised" >&2
    exit 1
fi

# ---- cooperative shutdown: SIGTERM mid-campaign, then inspect ---------------
echo "run_torture: SIGTERM mid-campaign (expect exit 143 + __shutdown__ record)..."
dir="$WORK/sigterm"
mkdir -p "$dir"
env $SCALE FPTC_JOBS="$JOBS" \
    FPTC_JOURNAL="$dir/journal.jsonl" FPTC_ARTIFACTS_DIR="$dir" \
    FPTC_METRICS="$dir/metrics.json" \
    "$BIN" >"$dir/stdout.txt" 2>"$dir/stderr.txt" &
PID=$!
# Wait until real progress is journaled, then interrupt.
for _ in $(seq 1 300); do
    journaled=$(grep -c '^{' "$dir/journal.jsonl" 2>/dev/null || true)
    if [ "${journaled:-0}" -ge 1 ]; then
        break
    fi
    sleep 0.1
done
kill -TERM "$PID" 2>/dev/null || true
status=0
wait "$PID" || status=$?
if [ "$status" != 143 ]; then
    echo "run_torture: FAIL: SIGTERMed run exited $status (expected 143 = 128+SIGTERM)" >&2
    exit 1
fi
if ! grep -q '"key":"table4|__shutdown__"' "$dir/journal.jsonl"; then
    echo "run_torture: FAIL: no __shutdown__ record in the journal after SIGTERM" >&2
    exit 1
fi
if [ ! -s "$dir/metrics.json" ]; then
    echo "run_torture: FAIL: SIGTERMed run flushed no metrics.json" >&2
    exit 1
fi
if command -v python3 >/dev/null 2>&1; then
    python3 -c 'import json,sys; json.load(open(sys.argv[1]))' "$dir/metrics.json" || {
        echo "run_torture: FAIL: metrics.json is not valid JSON after SIGTERM" >&2
        exit 1
    }
fi
echo "run_torture: shutdown ok (exit 143, journal + telemetry flushed)"
echo "run_torture: PASS ($SWEPT kill point(s) swept, resume bit-identical each time; SIGTERM shutdown clean)"
