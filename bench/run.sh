#!/usr/bin/env bash
# Builds (if needed) and runs the benchmark harness from the repository
# root; arguments go to `bench` (see `bench --help`).
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run --release --offline --quiet \
    --manifest-path bench/Cargo.toml --target-dir "${CARGO_TARGET_DIR:-target}" -- "$@"
