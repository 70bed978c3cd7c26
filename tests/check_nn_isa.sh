#!/bin/sh
# Instruction-set hygiene of fptc_nn's objects (the NnIsaHygiene test).
#
#   check_nn_isa.sh <object>...     every object file of fptc_nn
#
# fptc_nn compiles its kernels twice: gemm_avx2.cpp with -mavx2, every
# other unit at the x86-64 baseline, and picks one per process by CPUID.
# That is only safe if
#   1. no baseline object holds a VEX-encoded (v-prefixed) or ymm/zmm
#      instruction, which would raise SIGILL on a CPU without AVX; and
#   2. the AVX2 object defines no weak symbol and no global symbol outside
#      fptc::nn::detail::avx2.  A weak (inline or template) function built
#      there could be the copy the linker hands to baseline callers.
# Exits 77 (skipped) off x86-64, where no AVX2 unit is built.
set -u

case "$(uname -m)" in
x86_64 | amd64) ;;
*)
    echo "NnIsaHygiene: not x86-64, skipped"
    exit 77
    ;;
esac

status=0
avx2_seen=0
for object in "$@"; do
    case "$object" in
    *gemm_avx2.cpp.o*)
        avx2_seen=1
        bad=$(nm -C --defined-only "$object" | awk '
            $2 ~ /^[WwVvu]$/ { print "weak: " $0; next }
            $2 ~ /^[A-Z]$/ {
                name = $3
                for (i = 4; i <= NF; ++i) name = name " " $i
                if (index(name, "fptc::nn::detail::avx2::") != 1) print "global: " $0
            }')
        if [ -n "$bad" ]; then
            echo "FAIL $object: symbols outside fptc::nn::detail::avx2 or weak:"
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
    echo "FAIL: no gemm_avx2.cpp.o among the objects"
    status=1
fi
[ "$status" -eq 0 ] && echo "NnIsaHygiene: $# objects ok"
exit "$status"
