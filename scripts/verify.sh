#!/usr/bin/env bash
# Tier-1 verification, hermetically: the workspace must build and test
# against an EMPTY cargo registry (DESIGN.md "Dependencies").
#
# CARGO_NET_OFFLINE + --offline make a reintroduced external dependency
# fail resolution immediately instead of silently fetching.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

# Belt and braces: no Cargo.toml may name a registry crate. Path-only
# workspace deps are the policy; --offline below enforces it at resolve
# time, this just makes the failure message direct.
if grep -rn --include=Cargo.toml -E '^[[:space:]]*(rand|serde|proptest|criterion)[[:space:]]*=' \
    Cargo.toml crates examples tests; then
    echo "ERROR: external dependency found in a Cargo.toml (policy: zero external deps)" >&2
    exit 1
fi

# Hot-path de-allocation discipline (DESIGN.md "Performance
# engineering"): Mesh::tick and drain_arrived_into run every simulated
# cycle and must not allocate — scratch buffers only. (The allocating
# drain_arrived convenience wrapper is test-only, off the hot path.)
if awk '/pub fn tick\(|pub fn drain_arrived_into/{hot=1} hot && /^    }$/{hot=0} hot' \
    crates/mesh/src/lib.rs | grep -nE 'Vec::new\(\)|vec!\['; then
    echo "ERROR: allocation in the Mesh::tick/drain_arrived_into hot path (reuse a scratch buffer)" >&2
    exit 1
fi
# Same rule for the activity scheduler (DESIGN.md "Performance
# engineering II"): the wake/advance hot path — wake_at, set, take_due,
# earliest — runs on every message delivery and every sparse tick; the
# wheel's storage is allocated once in `new` and only reused after.
if awk '/pub fn wake_at\(|pub fn set\(|pub fn take_due\(|pub fn earliest\(/{hot=1} hot && /^    }$/{hot=0} hot' \
    crates/kernel/src/sched.rs | grep -nE 'Vec::new\(\)|vec!\['; then
    echo "ERROR: allocation in the ActivitySched wake/advance hot path (storage is pre-sized in new())" >&2
    exit 1
fi

# Topology discipline: no component may hardcode the 4x4 machine —
# PR 6 made every mesh/bank dimension flow from SystemConfig/HomeMap.
# A `Mesh::new(4, 4, ...)`-style literal in library code reintroduces
# the small-topology assumptions that broke 64/256-core runs. (Tests
# may pin 4x4 latencies; library sources may not.)
if grep -rn --include='*.rs' -E 'Mesh::(<[^>]*>::)?new\(4, 4,' crates/*/src; then
    echo "ERROR: hardcoded 4x4 topology literal in library code (derive it from SystemConfig/NetworkConfig)" >&2
    exit 1
fi

# Attribution-memory discipline: hot-path cycle attribution must use
# the bounded heavy-hitters sketch, never an unbounded per-line map — a
# torture workload touching millions of distinct lines would otherwise
# grow attribution state without limit. The sketch itself is a plain
# Vec; only the test module may hold a map (the exact-count oracle the
# property tests compare against).
if awk '/#\[cfg\(test\)\]/{exit} {print FNR": "$0}' crates/kernel/src/attr.rs \
    | grep -E 'HashMap|BTreeMap'; then
    echo "ERROR: map type in crates/kernel/src/attr.rs library code (the sketch must stay O(k): plain Vec only)" >&2
    exit 1
fi

# Guarded-state discipline: the coherence books (cache line state/tags,
# directory owner + sharer sets) carry guard hashes that the soft-error
# detectors check; every mutation must go through the protocol crate's
# own helpers, which re-seal the guard (`reguard`). A raw field write
# from outside crates/protocol/src would silently desynchronize the
# guard and read as a false detection (or mask a real flip).
if grep -rn --include='*.rs' -E '\.(sharers|owner|guard) = ' \
    crates/kernel/src crates/core/src crates/cpu/src crates/mesh/src \
    crates/mem/src crates/bench/src examples/src tests; then
    echo "ERROR: raw write to a guarded protocol field outside crates/protocol/src (use the guarded helpers so the guard hash is re-sealed)" >&2
    exit 1
fi
# Within the protocol crate the sharer-set storage is private to
# sharers.rs: raw `.words` pokes elsewhere would bypass the guard-word
# accounting the directory guard hash is built from.
if grep -rn --include='*.rs' -E '\.words(\[| =)' crates/protocol/src \
    | grep -v '^crates/protocol/src/sharers\.rs:'; then
    echo "ERROR: raw SharerSet word access outside crates/protocol/src/sharers.rs (use the SharerSet API)" >&2
    exit 1
fi

cargo build --release --offline
# `cargo build` and `cargo test` never compile the `harness = false`
# bench target (protocol); without this a bench that stops compiling
# rots until someone runs it.
cargo check --offline --all-targets
# Three disciplines are lints at the crate roots, not greps here: no
# unwrap/expect in wb-mesh (it sits under a fault injector), no bare
# panic!/unreachable! in wb-protocol (impossible states are typed
# faults), no println!/eprintln! in any component crate (output goes
# through wb_kernel::trace). Each is a `deny`, so clippy exits nonzero.
# `--all-targets` lints the tests, benches and examples too (the
# wb-protocol panic lint is off under `cfg(test)`; the others apply).
# A fourth is workspace-wide: the root clippy.toml disallows
# `Instant::now` / `SystemTime::now`, and `-D` makes a host-clock read
# anywhere but the one `#[allow]` in wb_bench::timing an error — so
# simulated results (snapshots, campaign cells, the tables in results/)
# stay pure functions of their inputs. Host time is measured by
# benchmark/, which this workspace does not build.
cargo clippy --offline --all-targets -- -D clippy::disallowed_methods
cargo test -q --offline

# Golden results: every deterministic table in results/ (the figures,
# the anchor cells and the three labs, which assert internally) is
# regenerated from this build and must match the committed set byte for
# byte. A behaviour change arrives with its regenerated tables: run
# `scripts/results.sh results` and commit the diff.
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
scripts/results.sh "$tmp/results"
if ! diff -ru results "$tmp/results"; then
    echo "ERROR: results/ differs from this build's output (refresh with scripts/results.sh results and commit the diff)" >&2
    exit 1
fi

# Trace smoke test: the protocol_trace example must emit a well-formed,
# self-validated Chrome trace (it parses its own output before printing
# the OK line).
cargo run -q --release --offline -p wb-examples --bin protocol_trace -- \
    --chrome "$tmp/trace.json" | grep -q 'chrome trace OK:'
test -s "$tmp/trace.json"

# Engine-equivalence smoke: the sparse engine must stay cycle-exact
# against dense ticking — one litmus cell and one RTO-bound fault cell
# (the quiescence-heavy shape jumping exists for), in release mode,
# including the self-checking SparseVerify pass (it rides inside
# assert_equivalent), plus the sparse-economics sanity cell (the engine
# must demonstrably visit only live components, not just match
# outcomes).
cargo test -q --release --offline -p wb-integration --test engine_equivalence -- \
    litmus_runs_are_cycle_exact rto_bound_bench_cells_are_cycle_exact \
    sparse_engine_visits_only_live_components \
    | grep -q 'test result: ok'

# Scaling smoke: the 16x16 watchdog regression cells run at full size
# in release builds (debug builds use a 10x10 stand-in), and the
# scaling sweep's 64-core sparse cell must complete and emit parseable
# JSON with the per-bank occupancy instrumentation.
cargo test -q --release --offline -p wb-integration --test scale \
    | grep -q 'test result: ok'
WB_BENCH_DIR="$tmp" cargo run -q --release --offline -p wb-bench --bin scaling -- --smoke
grep -q 'dir_bank_occupancy' "$tmp/BENCH_scaling.json"

# Campaign smoke: the crash-resume contract end to end. Run a tiny
# campaign to completion for reference, run the same spec with the
# kill-after-3-cells hook (the process dies as abruptly as a kill -9),
# resume it, and require a complete manifest plus a merged.jsonl that is
# byte-identical to the uninterrupted run.
campdir="$tmp/campaign"
mkdir "$campdir"
cat > "$campdir/spec.json" <<'EOF'
{ "name": "smoke", "cores": 2, "engine": "sparse", "budget": 20000000,
  "workloads": ["mp", "sb"], "arms": ["wb-ooo"],
  "chaos": ["off", "delay-storm"], "faults": ["off"], "seeds": [1, 2] }
EOF
cargo run -q --release --offline -p wb-bench --bin campaign -- \
    "$campdir/spec.json" --out "$campdir/ref" --threads 2
if WB_CAMPAIGN_KILL_AFTER=3 cargo run -q --release --offline -p wb-bench --bin campaign -- \
    "$campdir/spec.json" --out "$campdir/cut" --threads 2 2>/dev/null; then
    echo "ERROR: campaign survived WB_CAMPAIGN_KILL_AFTER (kill hook broken)" >&2
    exit 1
fi
test "$(wc -l < "$campdir/cut/manifest")" -eq 3
cargo run -q --release --offline -p wb-bench --bin campaign -- \
    "$campdir/spec.json" --out "$campdir/cut" --threads 2
test "$(wc -l < "$campdir/cut/manifest")" -eq 8
cmp "$campdir/ref/merged.jsonl" "$campdir/cut/merged.jsonl"

# Benchmark smoke: benchmark/ is a package of its own that builds
# against the public API of crates/* (the layer rig assembles the
# machine from the component constructors and must equal `System`
# cycle for cycle), and the root `cargo test` never sees it. Its unit
# tests and a cut-down run catch a core change that breaks its build or
# the rig-equals-System contract before a benchmark driver does.
cargo test -q --release --offline --manifest-path benchmark/Cargo.toml
bash benchmark/run.sh --smoke > /dev/null

echo "tier-1 verify: OK (offline build + full test suite + golden results + trace + engine-equivalence + scaling + campaign crash-resume + benchmark smoke tests)"
