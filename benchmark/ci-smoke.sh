#!/usr/bin/env bash
# Smoke run of the perf ledger: every workload, traced and untraced, with
# 2 s windows and no bounds check. Fails if any path errors or any
# correctness gate trips. Ready to be wired into .github/workflows/ci.yml.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo test --release --manifest-path benchmark/Cargo.toml --target-dir "${CARGO_TARGET_DIR:-target}"
cargo run --release --quiet --manifest-path benchmark/Cargo.toml --target-dir "${CARGO_TARGET_DIR:-target}" -- run --smoke
