#!/usr/bin/env bash
# Panic audit: fail when new `.unwrap()` / `.expect(` sites appear in the
# engine's non-test hot-path sources. The pipeline's error policy
# (DESIGN.md §10) routes every input-dependent failure through the typed
# `IpsError` taxonomy; unwraps are reserved for proven-infallible cases,
# each of which must be registered in the allowlist below with a
# justification.
#
# Test modules (everything from the first `#[cfg(test)]` down) are
# exempt: unwrap in a test is idiomatic.
set -euo pipefail
cd "$(dirname "$0")/.."

AUDITED_FILES=(
    crates/bench/src/bin/bench_grid.rs
    crates/bench/src/bin/bench_scaling.rs
    crates/bench/src/bin/bench_serve.rs
    crates/classify/src/transform.rs
    crates/core/src/candidates.rs
    crates/core/src/engine.rs
    crates/core/src/explain.rs
    crates/core/src/pipeline.rs
    crates/core/src/pool.rs
    crates/core/src/sampling.rs
    crates/core/src/schedule.rs
    crates/core/src/topk.rs
    crates/core/src/utility.rs
    crates/distance/src/batch.rs
    crates/distance/src/cache.rs
    crates/distance/src/euclid.rs
    crates/distance/src/queries.rs
    crates/distance/src/rolling.rs
    crates/filter/src/dabf.rs
    crates/lsh/src/table.rs
    crates/profile/src/instance.rs
    crates/serve/src/persist.rs
    crates/serve/src/registry.rs
    crates/serve/src/server.rs
)

# Allowlisted panic sites: one unique substring of the offending line per
# entry. Add a line here ONLY for a panic that cannot fire on any input
# (document why in the source), never to silence a reachable one.
ALLOWLIST=(
    # WorkerPool::try_run (pool.rs): every index 0..n is filled before
    # the take; a hole would be a harness bug, not an input condition.
    's.expect("every index evaluated")'
    # AbsDevTable prefix sums: the vector is seeded with one element
    # before the loop, so `last()` is always Some.
    'prefix.push(prefix.last().unwrap() + v)'
    # SeriesPlan::stats_for: the `last()` directly follows a `push` onto
    # the same vector, so it is always Some.
    '&self.stats.last().unwrap().1'
    # SeriesPlan::dots: `ensure_spectrum` on the line before sets the
    # spectrum whenever it is None.
    'self.spectrum.as_ref().expect("spectrum just built")'
)

status=0
for file in "${AUDITED_FILES[@]}"; do
    # Non-test portion only: cut at the first `#[cfg(test)]`.
    hits=$(awk '/^#\[cfg\(test\)\]/{exit} /\.unwrap\(\)|\.expect\(/{print FNR": "$0}' "$file")
    [ -z "$hits" ] && continue
    while IFS= read -r hit; do
        allowed=0
        for entry in "${ALLOWLIST[@]}"; do
            case "$hit" in
                *"$entry"*) allowed=1 ;;
            esac
        done
        if [ "$allowed" -eq 0 ]; then
            echo "panic_audit: $file:${hit%%:*}: unregistered unwrap/expect in non-test code:"
            echo "    ${hit#*: }"
            echo "    Route the failure through IpsError (see DESIGN.md §10) or, if provably"
            echo "    infallible, register the site in scripts/panic_audit.sh with a justification."
            status=1
        fi
    done <<<"$hits"
done

if [ "$status" -eq 0 ]; then
    echo "panic_audit OK: no unregistered unwrap/expect in ${#AUDITED_FILES[@]} audited file(s)"
fi
exit "$status"
