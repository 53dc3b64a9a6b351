#!/usr/bin/env bash
# Builds the shipped psq-serve and psq-router binaries and the benchmark
# from source, then runs the benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload light_stream --seed 1 --seconds 10 --trace 0
#
# Builds land in $CARGO_TARGET_DIR (default .bench_build); span dumps of
# traced runs land in $CARGO_TARGET_DIR/perfbench.
set -euo pipefail
if [[ ! -f Cargo.toml || ! -d crates/psq-serve ]]; then
    echo "perfbench: run from the repository root (psq-serve sources not found)" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --offline -p psq-serve -p psq-router \
    --bin psq-serve --bin psq-router
cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml
exec "$CARGO_TARGET_DIR/release/psq-perfbench" \
    --serve-bin "$CARGO_TARGET_DIR/release/psq-serve" \
    --router-bin "$CARGO_TARGET_DIR/release/psq-router" \
    --out-dir "$CARGO_TARGET_DIR/perfbench" "$@"
