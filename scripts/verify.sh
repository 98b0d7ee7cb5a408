#!/usr/bin/env bash
# Full verification gate: build, tests, formatting, lints, rustdoc.
# Run before every commit; CI runs the same sequence. It takes no flags.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "$#" -ne 0 ]; then
  echo "verify.sh: takes no arguments (got: $*)" >&2
  exit 2
fi

echo "== cargo build --release =="
cargo build --release

echo "== cargo test (workspace) =="
cargo test -q --workspace

# The whole workspace again in release, where debug_assert!s and overflow
# checks are off: release builds sum prompt token counts without the debug
# recount (prompt_props and the prompt differential check those sums), and
# an overflow in A*'s packed open-list keys or the names' hash arithmetic
# would wrap silently. EMBODIED_JOBS=4 drives the determinism suite's
# env-driven sweep test through the worker pool.
echo "== cargo test (workspace, release, EMBODIED_JOBS=4) =="
EMBODIED_JOBS=4 cargo test --release -q --workspace

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

echo "== perf_bench tests =="
cargo test --release --offline --locked --manifest-path perf_bench/Cargo.toml

# Each workload's smoke report_digest is pinned: a change that moves any
# modelled result fails here, naming the workload. A change that moves
# results on purpose re-pins these values and says why in CHANGES.md.
echo "== perf_bench --smoke (pinned digests) =="
declare -A pinned=(
  [suite_mix]=a9ce0f25dcbd7e39
  [team_dialogue]=941cead9f2863027
  [fleet_shared]=cb18502c69d0352c
  [faulted_mix]=75030725149ea1b7
)
for workload in suite_mix team_dialogue fleet_shared faulted_mix; do
  digest=$(cargo run --release -q --offline --locked --manifest-path perf_bench/Cargo.toml -- \
    --smoke --workload "$workload" | sed -n 's/^# checks report_digest=\([0-9a-f]*\).*/\1/p')
  if [ "$digest" != "${pinned[$workload]}" ]; then
    echo "perf_bench --smoke: $workload report_digest is '$digest', pinned ${pinned[$workload]}" >&2
    exit 1
  fi
done

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

# Broken or ambiguous intra-doc links (e.g. to a deleted item) fail here.
echo "== cargo doc (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps --workspace

echo "verify: all gates passed"
