#!/usr/bin/env bash
# The serving benchmark's entry point. Run from the repository root:
#
#   bash perfbench/run.sh --workload warm-read --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --smoke
#
# Builds the `subsim` server and the perfbench load generator from source
# (release profile, into $CARGO_TARGET_DIR, default .bench_build), then
# runs the load generator, which prints one JSON result as its last line.
# Build output goes to stderr; all scratch files stay under the target
# directory.
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml --bin subsim >&2
cargo build --release --offline --quiet --manifest-path perfbench/loadgen/Cargo.toml >&2

# Provenance: the git revision when this is a git checkout, otherwise a
# hash of the sources the server was built from.
if [ -d .git ]; then
    rev=$(git rev-parse --short=12 HEAD)
else
    rev="src-$(find Cargo.toml Cargo.lock src crates -type f | LC_ALL=C sort | xargs cat | sha256sum | cut -c1-12)"
fi

exec "$CARGO_TARGET_DIR/release/perfbench" \
    --subsim "$CARGO_TARGET_DIR/release/subsim" \
    --work "$CARGO_TARGET_DIR/perfbench-work" \
    --rev "$rev" "$@"
