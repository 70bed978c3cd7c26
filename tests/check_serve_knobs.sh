#!/bin/sh
# The serve knobs that are read equal the serve knobs that are documented
# (the ServeKnobsDocumented test).
#
#   check_serve_knobs.sh <repo root>
#
# Every FPTC_SERVE_* name passed to an env_*("FPTC_SERVE_...") call in
# src/serve or bench/serve_throughput.cpp needs a row in README.md's
# environment tables, and every FPTC_SERVE_* name in those tables must be
# read that way.  The name must sit on the line of its env_*( call.
# FPTC_SERVE_ROLE and FPTC_SERVE_GENERATION are read
# through kServeRoleEnv and kServeGenerationEnv: they are the supervisor's
# plumbing to its worker, not knobs, and the pattern does not see them.
set -u

root=$1
read_knobs=$(grep -rhoE 'env_[a-z_]+\("FPTC_SERVE_[A-Z0-9_]+"' \
    "$root/src/serve" "$root/bench/serve_throughput.cpp" |
    grep -oE 'FPTC_SERVE_[A-Z0-9_]+' | sort -u)
documented=$(grep -E '^\|' "$root/README.md" | grep -oE 'FPTC_SERVE_[A-Z0-9_]+' | sort -u)

status=0
for name in $read_knobs; do
    if ! printf '%s\n' "$documented" | grep -qx "$name"; then
        echo "FAIL: $name is read but has no row in README.md's environment tables"
        status=1
    fi
done
for name in $documented; do
    if ! printf '%s\n' "$read_knobs" | grep -qx "$name"; then
        echo "FAIL: README.md documents $name, which no env_*() call reads"
        status=1
    fi
done
if [ "$status" -eq 0 ]; then
    echo "ServeKnobsDocumented: $(printf '%s\n' "$read_knobs" | wc -l) knobs, each read and documented"
fi
exit "$status"
