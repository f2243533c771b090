#!/usr/bin/env bash
# Tier-1 verification, hermetically: the workspace must build and test
# against an EMPTY cargo registry (DESIGN.md "Dependencies").
#
# CARGO_NET_OFFLINE + --offline make a reintroduced external dependency
# fail resolution immediately instead of silently fetching.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

# No Cargo.toml may name a registry crate. Path-only workspace deps are
# the policy; --offline below enforces it only while the local cargo
# cache lacks the crate (it resolves anything a populated cache holds),
# so this is the one check here that reads source text. Everything else
# is held by the compiler: the guarded coherence books are private to
# wb-protocol, the topology comes from SystemConfig (Mesh::new asserts
# it fits, and the tests build 64- and 256-core machines), and the
# per-cycle hot paths are allocation-free by tests/tests/no_alloc.rs.
if grep -rn --include=Cargo.toml -E '^[[:space:]]*(rand|serde|proptest|criterion)[[:space:]]*=' \
    Cargo.toml crates examples tests; then
    echo "ERROR: external dependency found in a Cargo.toml (policy: zero external deps)" >&2
    exit 1
fi

cargo build --release --offline
# Three disciplines are lints at the crate roots, not greps here: no
# unwrap/expect in wb-mesh (it sits under a fault injector), no bare
# panic!/unreachable! in wb-protocol (impossible states are typed
# faults), no println!/eprintln! in any component crate (output goes
# through wb_kernel::trace). Each is a `deny`, so clippy exits nonzero.
# `--all-targets` checks and lints every target, tests and examples
# too (the wb-protocol panic lint is off under `cfg(test)`; the others
# apply). A fourth is workspace-wide: the root clippy.toml disallows
# `Instant::now` / `SystemTime::now`, and `-D` makes a host-clock read
# anywhere an error — so simulated results (snapshots, campaign cells,
# the tables in results/) stay pure functions of their inputs. Host time is measured by
# benchmark/, which this workspace does not build. `-D warnings` makes
# every default-level lint an error too, so a new warning fails here
# instead of piling up.
cargo clippy --offline --all-targets -- -D warnings -D clippy::disallowed_methods
cargo test -q --offline

# Golden results: every deterministic table in results/ (the figures,
# the anchor cells, the scaling sweep, the protocol trace and the three
# labs, which assert internally) is regenerated from this build and must
# match the committed set byte for byte. A behaviour change arrives with
# its regenerated tables: run `scripts/results.sh results` and commit
# the diff.
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
scripts/results.sh "$tmp/results"
if ! diff -ru results "$tmp/results"; then
    echo "ERROR: results/ differs from this build's output (refresh with scripts/results.sh results and commit the diff)" >&2
    exit 1
fi

# Engine-equivalence smoke: the sparse engine must stay cycle-exact
# against dense ticking — one litmus cell, one RTO-bound fault cell
# (the quiescence-heavy shape jumping exists for) and one soft-error
# cell whose final audit drains a long tail of recovery traffic, in
# release mode, including the self-checking SparseVerify pass (it rides
# inside assert_equivalent), plus the sparse-economics sanity cell (the
# engine must demonstrably visit only live components, not just match
# outcomes).
cargo test -q --release --offline -p wb-integration --test engine_equivalence -- \
    litmus_runs_are_cycle_exact rto_bound_bench_cells_are_cycle_exact \
    soft_final_drain_is_cycle_exact sparse_engine_visits_only_live_components \
    | grep -q 'test result: ok'

# Scale suite: the 16x16 watchdog regression cells run at full size in
# release builds (debug builds use a 10x10 stand-in).
cargo test -q --release --offline -p wb-integration --test scale \
    | grep -q 'test result: ok'

# Campaign smoke: the crash-resume contract end to end. Run a tiny
# campaign to completion for reference, run the same spec with the
# kill-after-3-cells hook (the process dies as abruptly as a kill -9),
# resume it, and require a complete manifest plus a merged.jsonl and a
# wedges.jsonl that are byte-identical to the uninterrupted run's.
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
cmp "$campdir/ref/wedges.jsonl" "$campdir/cut/wedges.jsonl"

# Farm gates: seeds 0-99 of three committed 400-seed scans on all five
# arms must read no failure of any kind. campaigns/soft_torture.json is
# torture under background radiation at 20x and 5x (1000 cells),
# campaigns/cache_state_storm.json the same under a cache-state storm at
# 100x (500) and campaigns/tiny_llc.json torture over 24 lines on the
# tiny-LLC machine (500). Torture cells keep the event log, so each one
# must drain, audit clean and pass the TSO checker.
gate() {
    local name="$1" cells="$2" summary
    sed 's/"count": 400/"count": 100/' "campaigns/$name.json" > "$campdir/$name.json"
    summary="$(cargo run -q --release --offline -p wb-bench --bin campaign -- \
        "$campdir/$name.json" --out "$campdir/$name" --threads 2)"
    echo "$summary"
    case "$summary" in
        *": $cells cells ("*", 0 wedges, 0 faults, 0 corrupt -> "*) ;;
        *)
            echo "ERROR: $name gate failed; first cell per signature:" >&2
            cat "$campdir/$name/wedges.jsonl" >&2
            exit 1
            ;;
    esac
}
gate soft_torture 1000
gate cache_state_storm 500
gate tiny_llc 500

# Benchmark smoke: benchmark/ is a package of its own that builds
# against the public API of crates/* (the layer rig assembles the
# machine from the component constructors and must equal `System`
# cycle for cycle), and the root `cargo test` never sees it. Its unit
# tests and a cut-down run catch a core change that breaks its build or
# the rig-equals-System contract before a benchmark driver does.
cargo test -q --release --offline --manifest-path benchmark/Cargo.toml
bash benchmark/run.sh --smoke > /dev/null

echo "tier-1 verify: OK (offline build + clippy + full test suite + golden results + engine-equivalence + scale + campaign crash-resume + soft-error, cache-state-storm and tiny-LLC farm gates + benchmark smoke tests)"
