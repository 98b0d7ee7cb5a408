#!/usr/bin/env bash
# Full verification gate: build, tests, formatting, lints, rustdoc.
# Run before every commit; CI runs the same sequence.
#
# Optional flags:
#   --bench   also run quick criterion passes over the step loop, the event
#             queue, the tokenizer and the execution substrates (A* et al.).
set -euo pipefail
cd "$(dirname "$0")/.."

run_bench=0
for arg in "$@"; do
  case "$arg" in
    --bench) run_bench=1 ;;
    *) echo "verify.sh: unknown flag $arg" >&2; exit 2 ;;
  esac
done

echo "== cargo build --release =="
cargo build --release

echo "== cargo test (workspace) =="
cargo test -q --workspace

# One table-driven determinism suite. Its tests pin their own worker counts;
# EMBODIED_JOBS=4 drives the env-driven sweep test through the pool. Release,
# because release builds take the count-only prompt path.
echo "== determinism suite (release, EMBODIED_JOBS=4) =="
EMBODIED_JOBS=4 cargo test --release -q -p embodied-bench --test determinism

# suite_integration's reports_are_internally_consistent checks, on the
# count-only prompt path that experiments and perf_bench take, that every
# report's breakdown and step latencies sum to its latency and that each LLM
# call is billed once. alloc's allocation gates run on that path too. Release
# builds take summed token counts (percepts, phrases, preambles) without the
# debug recount, so prompt_props is the check of those sums on that path.
echo "== resilience + integration + allocation + prompt properties (release) =="
cargo test --release -q -p embodied-suite -p embodied-agents --test resilience \
  --test fault_properties --test guardrail_properties --test suite_integration --test alloc \
  --test prompt_props

# A*'s packed open-list keys rely on size checks that hold in both builds,
# but a field overflow that debug builds catch would wrap silently in release.
# So the planner's reference gate, its key-boundary unit tests and the route
# memo's properties run in release too, as do the entity names' properties
# (wrapping hash arithmetic, the token memo).
echo "== A* reference + packed keys + route memo + names (release) =="
cargo test --release -q -p embodied-exec -p embodied-env --lib --test astar_reference \
  --test route_memo --test name_props

# Release builds assemble prompts as counts; debug builds render them.
echo "== rendered vs count-only prompt differential (release) =="
cargo test --release -q -p embodied-agents --lib differential

# Every committed results/*.md and scenario fixture must regenerate byte for
# byte, at one worker and at four. --check writes nothing; it names any
# differing, missing or orphan file and exits 1. The two passes run side by
# side; both are waited for and reported before either failure stops the gate.
echo "== experiments --check all (--jobs 1 and --jobs 4) =="
cargo build --release -q -p embodied-bench --bin experiments
./target/release/experiments --check --jobs 1 all &
jobs1=$!
status4=0
./target/release/experiments --check --jobs 4 all || status4=$?
status1=0
wait "$jobs1" || status1=$?
echo "experiments --check all: exit $status1 at --jobs 1, $status4 at --jobs 4"
if [ "$status1" -ne 0 ] || [ "$status4" -ne 0 ]; then
  exit 1
fi

# The examples are the documented entry points, and custom_env is the one
# environment outside the env crate. Each must run to the end without a panic.
echo "== examples (release) =="
cargo build --release -q -p embodied-suite --examples
for example in examples/*.rs; do
  ./target/release/examples/"$(basename "$example" .rs)" > /dev/null
done

echo "== scenario regression fixtures + evolution properties =="
cargo test --release -q -p embodied-bench --test regression_scenarios --test scenario_evolution

echo "== perf_bench tests =="
cargo test --release --offline --locked --manifest-path perf_bench/Cargo.toml

echo "== perf_bench --smoke =="
cargo run --release -q --offline --locked --manifest-path perf_bench/Cargo.toml -- --smoke > /dev/null

if [ "$run_bench" -eq 1 ]; then
  for bench in step_loop event_queue tokenizer substrates; do
    echo "== bench smoke: criterion $bench (quick mode) =="
    CRITERION_SHIM_ITERS=5 cargo bench -q -p embodied-bench --bench "$bench"
  done
fi

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

# Broken or ambiguous intra-doc links (e.g. to a deleted item) fail here.
echo "== cargo doc (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps --workspace

echo "verify: all gates passed"
