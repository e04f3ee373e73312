#!/usr/bin/env bash
# Build and test the repository with no network.
#
# The workspace root does not resolve offline (criterion, proptest, rand), so
# this assembles a throwaway workspace under target/offline/ from copies of
# crates/{sqlengine,textproc,born,core} plus the root tests/, with the
# registry dependencies patched to the std-only stand-ins the benchmark
# already keeps under benchmark/stubs/ (read in place, never copied or
# edited). Then: release build, every suite that does not need proptest or
# rand, and the benchmark's own tests. No flags, no environment knobs.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
work="$root/target/offline"

# Suites that import proptest or rand (or, for end_to_end, the rand-backed
# `datasets` generators): not built here. This list is the gap.
skipped_suites=(
    crates/sqlengine/tests/differential.rs
    crates/sqlengine/tests/index_differential.rs
    crates/sqlengine/tests/sema_prop.rs
    crates/sqlengine/tests/vectorized_differential.rs
    crates/sqlengine/tests/verify_prop.rs
    crates/born/tests/properties.rs
    crates/core/tests/oracle_equivalence.rs
    tests/end_to_end.rs
)
# Unit tests that round-trip JSON: the serde_json stand-in fails every call.
skipped_tests=(
    classifier_serde_roundtrip
    export_import_roundtrip_preserves_predictions
    artifact_json_is_stable
)

mkdir -p "$work"
# Everything but the build directory is rebuilt from the sources each run.
find "$work" -mindepth 1 -maxdepth 1 ! -name target -exec rm -rf {} +

for crate in sqlengine textproc born core; do
    cp -r "$root/crates/$crate" "$work/$crate"
    sed -i -E '/^(proptest|rand)\.workspace/d' "$work/$crate/Cargo.toml"
done
mkdir -p "$work/harness/src"
cp -r "$root/tests" "$work/harness/tests"
: > "$work/harness/src/lib.rs"
for suite in "${skipped_suites[@]}"; do
    case "$suite" in
        crates/*) rm "$work/${suite#crates/}" ;;
        *) rm "$work/harness/$suite" ;;
    esac
done

cat > "$work/harness/Cargo.toml" <<'EOF'
[package]
name = "harness"
version.workspace = true
edition.workspace = true
license.workspace = true
description = "Hosts the repository-root integration tests"

[dev-dependencies]
sqlengine.workspace = true
born.workspace = true
bornsql.workspace = true
textproc.workspace = true
EOF

cat > "$work/Cargo.toml" <<EOF
[workspace]
members = ["sqlengine", "textproc", "born", "core", "harness"]
resolver = "2"

[workspace.package]
version = "0.1.0"
edition = "2021"
license = "MIT"

[workspace.dependencies]
parking_lot = "0.12"
serde = { version = "1", features = ["derive"] }
serde_json = "1"
sqlengine = { path = "sqlengine" }
born = { path = "born" }
bornsql = { path = "core" }
textproc = { path = "textproc" }

[patch.crates-io]
parking_lot = { path = "$root/benchmark/stubs/parking_lot" }
serde = { path = "$root/benchmark/stubs/serde" }
serde_derive = { path = "$root/benchmark/stubs/serde_derive" }
serde_json = { path = "$root/benchmark/stubs/serde_json" }
EOF

skip_args=()
for t in "${skipped_tests[@]}"; do
    skip_args+=(--skip "$t")
done

cd "$work"
cargo build --offline --release
cargo test --offline -q -- "${skip_args[@]}"

cd "$root/benchmark"
cargo test --offline -q

echo "offline_check: ok (not run: ${skipped_suites[*]}; ${skipped_tests[*]})"
