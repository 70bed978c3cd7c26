#!/bin/sh
# Instruction-set hygiene of one library's objects (the NnIsaHygiene and
# GbtIsaHygiene tests).
#
#   check_nn_isa.sh <module> <object>...   every object file of fptc_<module>
#
# fptc_nn and fptc_gbt compile their kernels twice: a *_avx2.cpp unit with
# -mavx2, every other unit at the x86-64 baseline, and pick one per process
# by CPUID (util::active_isa).  That is only safe if
#   1. no baseline object holds a VEX-encoded (v-prefixed) or ymm/zmm
#      instruction, which would raise SIGILL on a CPU without AVX; and
#   2. the AVX2 object defines no weak symbol and no global symbol outside
#      fptc::<module>::detail::avx2.  A weak (inline or template) function
#      built there could be the copy the linker hands to baseline callers.
# Exits 77 (skipped) off x86-64, where no AVX2 unit is built.
set -u

case "$(uname -m)" in
x86_64 | amd64) ;;
*)
    echo "IsaHygiene: not x86-64, skipped"
    exit 77
    ;;
esac

module=$1
shift
prefix="fptc::$module::detail::avx2::"
status=0
avx2_seen=0
for object in "$@"; do
    case "$object" in
    *_avx2.cpp.o*)
        avx2_seen=1
        bad=$(nm -C --defined-only "$object" | awk -v prefix="$prefix" '
            $2 ~ /^[WwVvu]$/ { print "weak: " $0; next }
            $2 ~ /^[A-Z]$/ {
                name = $3
                for (i = 4; i <= NF; ++i) name = name " " $i
                if (index(name, prefix) != 1) print "global: " $0
            }')
        if [ -n "$bad" ]; then
            echo "FAIL $object: symbols outside $prefix or weak:"
            echo "$bad"
            status=1
        fi
        if ! objdump -d "$object" | grep -q '%ymm'; then
            echo "FAIL $object: no ymm instruction, so it was not built with -mavx2"
            status=1
        fi
        ;;
    *)
        bad=$(objdump -d "$object" | awk -F '\t' 'NF >= 3 && ($3 ~ /^v/ || $3 ~ /%[yz]mm/)')
        if [ -n "$bad" ]; then
            echo "FAIL $object: VEX or ymm instructions in a baseline object:"
            echo "$bad" | head -20
            status=1
        fi
        ;;
    esac
done
if [ "$avx2_seen" -eq 0 ]; then
    echo "FAIL: no *_avx2.cpp.o among the objects of fptc_$module"
    status=1
fi
[ "$status" -eq 0 ] && echo "IsaHygiene: fptc_$module, $# objects ok"
exit "$status"
