#!/bin/sh
# The knobs of one family that are read equal the knobs that are documented
# (the ServeKnobsDocumented, FaultKnobsDocumented and DriftKnobsDocumented
# tests).
#
#   check_knobs.sh <prefix> <repo root> <source>...
#
# e.g. `check_knobs.sh FPTC_SERVE . src/serve bench/serve_throughput.cpp`;
# sources are files or directories under the repo root.  A knob is read
# where its quoted <prefix>_* name is passed to an env_*( call or fills the
# knob column of a table row, a line that opens with `X(` (as in
# FPTC_FAULT_CLASSES, src/util/include/fptc/util/fault.hpp).  The name must
# sit on the line of its env_*( call or row.  Every name read needs a row in
# README.md's environment tables, and every <prefix>_* name in those tables
# must be read.  FPTC_SERVE_ROLE and FPTC_SERVE_GENERATION are read through
# kServeRoleEnv and kServeGenerationEnv: they are the supervisor's plumbing
# to its worker, not knobs, and the pattern does not see them.
set -u

prefix=$1
root=$2
shift 2
read_knobs=$(cd "$root" &&
    grep -rhoE "(env_[a-z_]+\(|^[[:space:]]*X\([^\"]*)\"${prefix}_[A-Z0-9_]+\"" "$@" |
    grep -oE "${prefix}_[A-Z0-9_]+" | sort -u)
documented=$(grep -E '^\|' "$root/README.md" | grep -oE "${prefix}_[A-Z0-9_]+" | sort -u)

status=0
for name in $read_knobs; do
    if ! printf '%s\n' "$documented" | grep -qx "$name"; then
        echo "FAIL: $name is read but has no row in README.md's environment tables"
        status=1
    fi
done
for name in $documented; do
    if ! printf '%s\n' "$read_knobs" | grep -qx "$name"; then
        echo "FAIL: README.md documents $name, which no env_*() call or table row reads"
        status=1
    fi
done
if [ "$status" -eq 0 ]; then
    echo "${prefix}_*: $(printf '%s\n' "$read_knobs" | wc -l) knobs, each read and documented"
fi
exit "$status"
