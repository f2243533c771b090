#!/usr/bin/env bash
# The repository's benchmark. Builds the standalone package in this
# directory (offline, release) and runs it with the arguments given:
#
#   benchmark/run.sh [--seed N]              every workload, untraced then traced
#   benchmark/run.sh --agree                 the untraced benchmark twice, results compared
#   benchmark/run.sh --smoke                 cut-down cell lists, one timed pass
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                            one measured process, one JSON result line
#
# See benchmark/README.md. Exits non-zero when the build fails or a run is
# not correct; cells that fail are counted and do not do that.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_NET_OFFLINE=true
# glibc's documented default, stated so that its dynamic adjustment is
# off: left on, a System::new costs 0.4 ms or 4 ms per 4-core machine
# depending on where earlier frees left the heap, and cells_per_s swings
# 2x between seeds (README, "Noise"). Every large array is then a fresh
# mapping, which is what the first System of any process pays. Not a
# setting: runs under another value would not compare, so there is none.
export MALLOC_MMAP_THRESHOLD_=131072
target="${CARGO_TARGET_DIR:-benchmark/target}"
# Cargo's own output goes to stderr, and only when the build fails.
if ! log="$(cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml --target-dir "$target" 2>&1)"; then
    printf '%s\n' "$log" >&2
    exit 1
fi
exec "$target/release/wb-benchmark" "$@"
