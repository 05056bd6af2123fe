#!/usr/bin/env bash
# Builds the program (the setagree-node binary of the root package) and
# the benchmark from source into one target directory, then runs the
# benchmark with the arguments given. Run from anywhere; works from the
# root of the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path Cargo.toml \
    -p setagree --bin setagree-node --target-dir "$target"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml \
    --target-dir "$target"
exec "$target/release/setagree-benchmark" \
    --node-binary "$target/release/setagree-node" --out benchmark/out "$@"
