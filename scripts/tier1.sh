#!/usr/bin/env bash
# Tier-1 gate: what CI and the roadmap treat as "the build is healthy".
#
#   scripts/tier1.sh          # release build + full test suite
#   scripts/tier1.sh --quick  # debug build + lib tests only
#
# Formatting is a hard gate: the tree is rustfmt-clean and stays that way
# (clippy runs as its own CI job, not here, to keep this script fast).
#
# Tier-2 (slow, not part of this gate): tests marked #[ignore] — currently
# the full-strength 5-dataset IPS-vs-BASE comparison (~60s debug). Run them
# explicitly with
#
#   cargo test -q --test pipeline_integration -- --ignored

set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
[[ "${1:-}" == "--quick" ]] && QUICK=1

if [[ "$QUICK" == 1 ]]; then
    echo "==> cargo build (debug)"
    cargo build --workspace
    echo "==> cargo test --lib"
    cargo test -q --workspace --lib
else
    echo "==> cargo build --release"
    cargo build --release
    echo "==> cargo test (every workspace crate: see default-members)"
    cargo test -q
    echo "==> panic audit"
    bash scripts/panic_audit.sh
fi

echo "==> cargo fmt --check"
cargo fmt --check

echo "tier-1: OK"
