#!/usr/bin/env bash
# Where one benchmark process spends its host time, by function.
#
#   scripts/hostprof.sh WORKLOAD SEED SECONDS OUTDIR [FOCUS]
#
# Builds wb-benchmark with frame pointers and limited debug info (line
# tables and inlined frames) into target/hostprof (not benchmark/target,
# so the benchmark's own build is untouched), builds the sampler
# scripts/hostprof.c with cc, runs
#
#   wb-benchmark --workload WORKLOAD --seed SEED --seconds SECONDS --trace 0
#
# in OUTDIR with the sampler preloaded, and resolves the samples with
# `addr2line -i`, so a function inlined into another still has its own
# row. It prints three tables, each as a share of all samples:
#
#   self       the innermost function of the sampled instruction;
#   inclusive  every function on the sampled stack, counted once;
#   callers    when FOCUS (an awk regex over function names) is given:
#              the share of samples inside a FOCUS function, by the
#              first two functions outside FOCUS on the way up.
#
# The untraced run is profiled, so the samples cover the real
# System::cycle path, not the layer rig's re-assembly of it. The kernel
# rounds ITIMER_PROF up to its tick: a 10 s run gives about 2,500
# samples on a 250 Hz host, so a share of 1% is about 25 samples.
# Example, the share of sequence-number searches and their callers:
#
#   scripts/hostprof.sh kernels16 3 10 /tmp/prof 'binary_search|partition_point'
set -euo pipefail
if [ $# -lt 4 ]; then
    sed -n '2,4p' "$0" >&2
    exit 2
fi
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
workload=$1 seed=$2 seconds=$3 focus=${5:-}
mkdir -p "$4"
out="$(cd "$4" && pwd)"

cc -O2 -shared -fPIC -o "$out/hostprof.so" "$root/scripts/hostprof.c"
target="$root/target/hostprof"
RUSTFLAGS="-C force-frame-pointers=yes" CARGO_PROFILE_RELEASE_DEBUG=limited CARGO_NET_OFFLINE=true \
    cargo build --release --offline --quiet --manifest-path "$root/benchmark/Cargo.toml" --target-dir "$target"
exe="$target/release/wb-benchmark"

# As benchmark/run.sh runs it.
(cd "$out" && MALLOC_MMAP_THRESHOLD_=131072 LD_PRELOAD="$out/hostprof.so" \
    "$exe" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 >run.json)
samples="$out/hostprof.samples"

# The executable is position-independent: its first mapping (file offset
# 0) is where its address 0 was loaded.
exe_real="$(readlink -f "$exe")"
# mawk has no strtonum: addresses are parsed by hand (exact below 2^53),
# and only offsets into the executable, which are small, become keys.
hex='function hex(s,    i, v) {
    sub(/^0x/, "", s); v = 0
    for (i = 1; i <= length(s); i++) v = v * 16 + index("0123456789abcdef", substr(s, i, 1)) - 1
    return v
}'
read -r lo hi bias < <(awk -v exe="$exe_real" "$hex"'
    $1 == "M" && $7 == exe {
        split($2, r, "-")
        s = hex(r[1]); e = hex(r[2])
        if (lo == "" || s < lo) lo = s
        if (e > hi) hi = e
        if ($4 == "00000000") bias = s
    }
    END { printf "%.0f %.0f %.0f\n", lo, hi, bias }' "$samples")

# Every distinct address inside the executable, as an ELF address; a
# return address is moved back into its call instruction.
awk -v lo="$lo" -v hi="$hi" -v bias="$bias" "$hex"'
    $1 == "S" {
        for (i = 2; i <= NF; i++) {
            a = hex($i) - (i > 2 ? 1 : 0)
            if (a >= lo && a < hi && !seen[a - bias]++) printf "%x\n", a - bias
        }
    }' "$samples" >"$out/addrs"
addr2line -e "$exe" -a -f -i -p -C <"$out/addrs" >"$out/resolved"

awk -v lo="$lo" -v hi="$hi" -v bias="$bias" -v focus="$focus" "$hex"'
    function name(line) {
        sub(/^ *\(inlined by\) /, "", line)
        sub(/^0x[0-9a-f]+: /, "", line)
        sub(/ at [^ ]*$/, "", line)
        sub(/::h[0-9a-f]+$/, "", line)
        return line
    }
    function row(title, arr, total,    k, n, keys, i, j, t) {
        n = 0
        for (k in arr) keys[++n] = k
        for (i = 2; i <= n; i++) {
            t = keys[i]
            for (j = i - 1; j >= 1 && arr[keys[j]] < arr[t]; j--) keys[j + 1] = keys[j]
            keys[j + 1] = t
        }
        printf "\n%s (share of %d samples)\n", title, total
        for (i = 1; i <= n && i <= 30; i++) printf "%6.1f%%  %s\n", 100 * arr[keys[i]] / total, substr(keys[i], 1, 150)
    }
    FILENAME == ARGV[1] {
        # addr2line -p: "0xADDR: f at file:line", then " (inlined by) g at ..."
        if ($0 ~ /^0x/) { cur = hex(substr($1, 1, length($1) - 1)); frames[cur] = name($0) }
        else frames[cur] = frames[cur] SUBSEP name($0)
        next
    }
    $1 == "S" {
        total++
        n = 0
        for (i = 2; i <= NF; i++) {
            a = hex($i) - (i > 2 ? 1 : 0)
            if (a >= lo && a < hi && ((a - bias) in frames)) {
                m = split(frames[a - bias], f, SUBSEP)
                for (k = 1; k <= m; k++) stack[++n] = f[k]
            } else stack[++n] = "[outside the executable]"
        }
        self[stack[1]]++
        delete once
        for (k = 1; k <= n; k++) if (!(stack[k] in once)) { once[stack[k]] = 1; incl[stack[k]]++ }
        if (focus != "") {
            for (k = 1; k <= n && stack[k] !~ focus; k++) ;
            if (k <= n) {
                infocus++
                for (; k <= n && stack[k] ~ focus; k++) ;
                callers[k > n ? "[no caller outside FOCUS]" : k < n ? stack[k] " <- " stack[k + 1] : stack[k]]++
            }
        }
    }
    END {
        if (total == 0) { print "no samples" > "/dev/stderr"; exit 1 }
        row("self", self, total)
        row("inclusive", incl, total)
        if (focus != "") {
            printf "\nFOCUS /%s/: %.1f%% of samples\n", focus, 100 * infocus / total
            row("callers of FOCUS", callers, total)
        }
    }' "$out/resolved" "$samples" | tee "$out/report.txt"
