#!/usr/bin/env bash
# Regenerate every deterministic table of results/ into DIR.
#
#   scripts/results.sh DIR        # scripts/verify.sh diffs a temp DIR against results/
#   scripts/results.sh results    # refresh the committed tables, then review the diff
#
# This is the one place that maps a command to its output file. It
# builds first, so it never runs stale binaries; it runs two commands at
# a time (each writes its own file) and exits non-zero if any fails.
set -euo pipefail
if [ $# -ne 1 ]; then
    echo "usage: $0 DIR" >&2
    exit 2
fi
mkdir -p "$1"
out="$(cd "$1" && pwd)"
cd "$(dirname "$0")/.."

cargo build --release --offline
bin="${CARGO_TARGET_DIR:-target}/release"

# One line per file: NAME BINARY [ARGS...] writes BINARY's stdout to
# DIR/NAME.txt. Slowest first, so the short ones fill in beside them.
xargs -P 2 -L 1 bash -c '
    bin=$1 out=$2 name=$3 exe=$4; shift 4
    "$bin/$exe" "$@" > "$out/$name.txt" || { echo "results.sh: $exe $* failed" >&2; exit 1; }
' _ "$bin" "$out" <<'EOF'
fig8_small fig8_wb_rates --small
fig10_small fig10_ooo_commit --small
ablation_commit ablation_commit
ablation_ldt ablation_ldt
fig10_nhm fig10_ooo_commit --class nhm
fig8_wb_rates fig8_wb_rates
fig10_ooo_commit fig10_ooo_commit
ablation_collapsible_lq ablation_collapsible_lq
fig9_overheads fig9_overheads
ablation_evictions ablation_evictions
scaling scaling
extension_ecl extension_ecl
ablation_option1 ablation_option1
table3_transitive table3_transitive
table1_litmus table1_litmus
chaos_lab chaos_lab
fault_lab fault_lab
table2_interleavings table2_interleavings
soft_lab soft_lab
anchors anchors
table6_config table6_config
protocol_trace protocol_trace
EOF
