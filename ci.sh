#!/usr/bin/env bash
# Full verification gate for the gnn4ip workspace, split into named
# stages. Everything resolves from in-repo path crates; no network access
# is required or attempted.
#
# Usage:
#   ./ci.sh                 run every stage, print a timing table at the end
#   ./ci.sh --stage <name>  run exactly one stage (same table, one row)
#   ./ci.sh --list          list stage names
#
# The per-stage wall-clock summary makes suite-runtime regressions
# visible directly in CI output; .github/workflows/ci.yml fans the same
# stages out as matrix jobs.
set -euo pipefail
cd "$(dirname "$0")"

# Guard against test-suite bloat: the non-ignored debug suite must stay
# fast (heavy model-training ablations live behind #[ignore] and run in
# the heavy stage below).
TIER1_TIMEOUT="${TIER1_TIMEOUT:-240}"

STAGES=(build tier1 workspace heavy fmt clippy doc examples audit serve service corpus analysis servebench benches)

stage_build() {
    cargo build --release --offline
}

stage_tier1() {
    cargo test -q --offline --no-run
    timeout "${TIER1_TIMEOUT}" cargo test -q --offline
}

stage_workspace() {
    # --no-fail-fast: one failing test binary must not hide the binaries after it
    cargo test -q --offline --workspace --no-fail-fast
}

stage_heavy() {
    cargo test -q --release --offline -- --ignored
}

stage_fmt() {
    cargo fmt --check
}

stage_clippy() {
    cargo clippy --workspace --all-targets --offline -- -D warnings
}

stage_doc() {
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace
}

stage_examples() {
    # every example that trains a detector, each through TrainEngine:
    # run_experiment (quickstart, delta_tuning, obfuscated_netlist), the
    # engine directly (embedding_atlas), and run_training_pipeline
    # (ip_audit, whose saved detector is removed first so it trains; the
    # second run loads the detector and re-embeds the owned cores)
    cargo build --offline --examples
    local example
    for example in quickstart delta_tuning obfuscated_netlist embedding_atlas; do
        cargo run --release --offline --example "${example}"
    done
    rm -rf target/artifacts/ip_audit
    cargo run --release --offline --example ip_audit
    cargo run --release --offline --example ip_audit
}

stage_audit() {
    # corpus-scale audit pipeline on the synthetic corpus: streaming
    # ingest, recall harness, and the corpus checkpoint directory: it
    # checkpoints, reopens, ingests more and checkpoints again, asserting
    # that the second checkpoint writes only the newly sealed shard and
    # name-block files plus the manifest, and that every reopened verdict
    # is bit-identical
    cargo run --release --offline --example audit_pipeline -- --designs 300 --variants 2
}

stage_serve() {
    # the concurrent serving path under the release profile: N reader
    # threads auditing published snapshots while a writer ingests; the
    # pruning/parallel-query/tie bit-identity proptests; and the index at
    # the shape `serve` runs on large corpora (50k rows, dim 16, 256-row
    # shards, k = 5), where saturation asserts that a query's hits in a
    # batch of 32 equal its batch of one, score bits included, before
    # timing the two
    cargo test -q --release --offline -p gnn4ip-core concurrent_readers
    cargo test -q --release --offline --test properties -- sharded pruned
    cargo run -q --release --offline -p gnn4ip-bench --bin saturation -- \
        --rows 50000 --dim 16 --cap 256 --k 5 --batch 32 --duration-ms 500
}

stage_service() {
    # the audit service surface: every serve-loop protocol/backpressure
    # test (bounded queue, ordered responses, publish visibility, dot
    # escaping, non-UTF-8 input, a panicking audit answered with an ERR
    # line while its worker serves on, and five bodies past the
    # elaboration budget -- nested loops and doubling module chains --
    # each answered with an ERR line naming the budget before the next
    # audit gets its verdict), the even split of the queue over the
    # workers (a_worker_drains_an_even_share_of_the_queue, and
    # a_burst_split_across_workers_is_answered_in_order_as_serial_audits:
    # 40 AUDITs, one malformed, to two workers taking at most 8 each,
    # answered in order with the serial verdicts), the in-place body
    # reader against the per-line reference at every buffer capacity from
    # 1 to 64 bytes, and the proptest that a query's hits do not depend
    # on the batch it is scored in; then
    # snapshot_audit_many_matches_pipeline: the snapshot's audit_many,
    # its front end on the calling thread, gives the verdicts and
    # rejections of the pipeline's fanned-out one bit for bit, and ingest
    # at one and two threads builds the same in-memory index and names.
    # The service:: tests include the STATS counters
    # (stats_reports_the_sessions_cache_hits_and_misses: one body twice is
    # cache_hits=1 cache_misses=1 with two identical VERDICT lines) and
    # the latency window (the most recent 65,536 samples). Then the
    # embedding cache: BLAKE2b's known answers (blake2b::), the table's
    # footprint against its 2 MiB budget, no allocation before the first
    # insert, and oldest-first deterministic eviction (cache::), and
    # cache_behavior: one lookup counted per source at one and two
    # threads, and warm answers of every cached entry point equal to a
    # cold detector's bit for bit
    cargo test -q --release --offline -p gnn4ip-core service::
    cargo test -q --release --offline --test properties -- batch_composition
    cargo test -q --release --offline -p gnn4ip-core snapshot_audit_many_matches_pipeline
    cargo test -q --release --offline -p gnn4ip-core --lib -- blake2b:: cache::
    cargo test -q --release --offline -p gnn4ip-core --test cache_behavior
}

stage_corpus() {
    # corpus-scale retrieval smoke at 100k rows: IVF rebalance routing
    # and append-only checkpoints — every bit-identity and incrementality
    # claim is asserted by the harness
    cargo run --release --offline --example corpus_scale -- --rows 100000
}

stage_analysis() {
    # g4check: line lints, the cross-file graph rules (lock discipline,
    # cast truncation, float determinism, panic reachability, and the
    # interprocedural taint rules — see RULES.md), and the loom-lite
    # exhaustive interleaving checks. The
    # scan covers src/, examples/, tests/, and benches/ alike. The JSON
    # report is kept as a build artifact; exit code 1 means findings,
    # anything else from the binary is an infrastructure failure.
    cargo build --release --offline -p gnn4ip-analysis --bin g4check
    mkdir -p target
    local rc=0
    ./target/release/g4check --json all >target/g4check-report.json || rc=$?
    if [[ "$rc" -eq 0 ]]; then
        echo "analysis: clean ($(sed -n 's/.*"files_scanned": \([0-9]*\).*/\1/p' \
            target/g4check-report.json) files scanned)"
        return 0
    fi
    if [[ "$rc" -eq 1 ]]; then
        echo "analysis: violations found — target/g4check-report.json" >&2
        # pretty-print each violation line out of the JSON report
        sed -n 's/^    {"rule": "\([^"]*\)", "path": "\([^"]*\)", "line": \([0-9]*\).*/  [\1] \2:\3/p' \
            target/g4check-report.json >&2
        return 1
    fi
    echo "analysis: g4check infrastructure failure (exit ${rc})" >&2
    return "$rc"
}

stage_servebench() {
    # the serve benchmark's own correctness checks: its unit tests (request
    # framing, response parsing, percentiles, span self time), then one
    # short run per workload, each checking every response's order and
    # kind (and, on the read-only rtl_audit and large_corpus_audit, a
    # sample of VERDICT lines byte for byte against one-suspect audits).
    # The netlist run is the only one that sends obfuscated ~37 KB
    # ISCAS-class bodies with dot-stuffed named-port lines through the
    # Verilog front end inside run_service. The large-corpus run is the
    # only one that checks serve's batched verdicts against one-suspect
    # audits across many shards (195 sealed shards, all scanned). The
    # stage fails unless every run's result line says it was correct.
    cargo test --release --offline --manifest-path servebench/Cargo.toml
    local workload result
    for workload in rtl_audit netlist_ingest_audit large_corpus_audit; do
        result=$(cargo run --release --offline --quiet --manifest-path servebench/Cargo.toml -- \
            --workload "${workload}" --seed 1 --seconds 2 --trace 0 | tail -n 1)
        echo "servebench ${workload}: ${result}"
        if [[ "$result" != *'"correct": true'* || "$result" != *'"failed": 0,'* ]]; then
            echo "servebench: the ${workload} run was not correct" >&2
            return 1
        fi
    done
}

stage_benches() {
    cargo bench --no-run --offline -p gnn4ip-bench
    cargo build --release --offline -p gnn4ip-bench --bin repro
}

TIMING_NAMES=()
TIMING_SECS=()

run_stage() {
    local name="$1"
    echo "==> stage: ${name}"
    local start end
    start=$(date +%s)
    "stage_${name}"
    end=$(date +%s)
    TIMING_NAMES+=("${name}")
    TIMING_SECS+=($((end - start)))
}

print_timing_table() {
    local total=0
    echo
    echo "==> stage timing summary"
    printf '%-12s %10s\n' "stage" "seconds"
    printf '%-12s %10s\n' "-----" "-------"
    for i in "${!TIMING_NAMES[@]}"; do
        printf '%-12s %10d\n' "${TIMING_NAMES[$i]}" "${TIMING_SECS[$i]}"
        total=$((total + TIMING_SECS[i]))
    done
    printf '%-12s %10d\n' "total" "${total}"
}

case "${1:-}" in
--list)
    printf '%s\n' "${STAGES[@]}"
    exit 0
    ;;
--stage)
    requested="${2:?usage: ci.sh --stage <name>}"
    found=0
    for s in "${STAGES[@]}"; do
        [[ "$s" == "$requested" ]] && found=1
    done
    if [[ "$found" -ne 1 ]]; then
        echo "unknown stage '${requested}'; stages: ${STAGES[*]}" >&2
        exit 2
    fi
    run_stage "$requested"
    print_timing_table
    echo "==> ci.sh: stage ${requested} green"
    exit 0
    ;;
"") ;;
*)
    echo "unknown argument '$1'; usage: ci.sh [--stage <name>|--list]" >&2
    exit 2
    ;;
esac

for s in "${STAGES[@]}"; do
    run_stage "$s"
done
print_timing_table
echo "==> ci.sh: all green"
