#!/usr/bin/env bash
# Full local gate: release build, tests, and lint with warnings denied.
#
# This is a superset of the CI tier-1 gate (`cargo build --release &&
# cargo test -q`); run it before pushing. Clippy checks every target, tests
# and benches included. `needless_range_loop` is allowed workspace-wide: the
# kernels index multiple parallel slices by design.
#
# Pass `--chaos` to also run the seeded fault-injection suite
# (tests/chaos.rs) with the `faults` feature armed. The seed set is fixed
# in the test itself, so a `--chaos` run is fully reproducible.
#
# Pass `--delta-gate` to also run the incremental-maintenance gate: a 1%
# row delta must re-discover in <= 25% of the cold wall with a
# byte-identical FD set (`delta_gate` in tests/gates.rs).
#
# Pass `--server-gate` to also run the serving-layer gate: the concurrent
# smoke suite (tests/server_smoke.rs) under the telemetry feature, the CLI
# argument-contract tests, and an end-to-end `fdtool serve` round trip over
# stdin/stdout.
#
# Pass `--obs-gate` to also run the live observability gate: the
# feature-off "telemetry disabled" pins under --no-default-features, and
# the OBS_GATE live-server round trip (tests/observability.rs spawns a real
# `fdtool serve` on a Unix socket with a 100 ms sampler and checks metrics
# rates, subscribe window sums vs stats, trace root fidelity, the
# Prometheus file, and `fdtool top`).
set -euo pipefail
cd "$(dirname "$0")/.."

RUN_CHAOS=0
RUN_DELTA_GATE=0
RUN_SERVER_GATE=0
RUN_OBS_GATE=0
for arg in "$@"; do
    case "$arg" in
        --chaos) RUN_CHAOS=1 ;;
        --delta-gate) RUN_DELTA_GATE=1 ;;
        --server-gate) RUN_SERVER_GATE=1 ;;
        --obs-gate) RUN_OBS_GATE=1 ;;
        *) echo "unknown option: $arg (supported: --chaos, --delta-gate, --server-gate, --obs-gate)" >&2; exit 2 ;;
    esac
done

cargo build --release
cargo test -q
# Property-based equivalence suite (CSR vs nested-vec partitions, PLI-cache
# transparency, algorithm invariance). Runs as part of `cargo test` too; the
# explicit invocation keeps it visible and fails fast with its own name.
cargo test -q -p fd-relation --test proptests
# Kernel-equivalence gate: the 4-lane agree-set kernel must match the
# scalar reference for arbitrary rows of every width up to 256 attributes,
# and work-stealing folds must match the sequential scan.
cargo test -q -p fd-relation --test proptests packed_kernel_matches_scalar_reference
cargo test -q -p fd-relation --test proptests novel_agree_sets_fold_matches_sequential_novelty_scan
# Dedup-table gate: the open-addressing agree-set table every sampling loop
# dedups with must answer each insert and contains like a hash set, through
# several growths and for keys in every word, the empty set and full(256).
cargo test -q -p fd-core --test proptests agree_set_table_matches_hash_set_model
cargo test -q -p fd-core --lib agree_table::
# Ingest gate: written fields read back verbatim and encode label for label
# like a RelationBuilder fed the same strings; blank lines, a leading byte
# order mark and quoted `\r`s follow the parser's rules; the interner keeps
# every label across table growth; and the server encodes raw delta rows
# under the null convention the dataset was registered with.
cargo test -q -p fd-relation --test proptests csv_reader_matches_builder_label_for_label
cargo test -q -p fd-relation --lib -- csv::tests dictionary::tests
# Ragged rows are numbered by the physical line their record starts on,
# after a quoted line break and in headerless input alike.
cargo test -q -p fd-relation --lib csv::tests::ragged_rows_are_numbered_by_the_line_their_record_starts_on
cargo test -q -p fd-server --lib server::tests::raw_deltas_follow_the_registered_null_convention
cargo test -q -p fd-core --lib parallel::
# Batched-sampler gate: a compare batch of many window steps must fold
# exactly the steps one step at a time would (a cluster promoted mid-batch
# is sampled before the planned tail; a tail cut by the step bound returns
# to its queue), and a pair cap must stop abalone 20 000 at the same step,
# pair count and FD set at 1 and 2 threads.
cargo test -q -p eulerfd --lib sampler::tests::batches_fold_the_steps_one_step_at_a_time_would
cargo test -q --test determinism pair_budget_trips_identically_at_every_thread_count
# One-fan-out gate: every kernel runs through `parallel::map_ordered`, so the
# agree-set budget caps must trip at every thread count and Tane must return
# the same FD set (and honour a cancelled token) at 1, 2 and 4 threads.
cargo test -q -p fd-baselines --lib agree::tests::cover_and_pair_caps_trip_at_every_thread_count
cargo test -q -p fd-baselines --lib tane::tests::tane_is_thread_count_invariant
# Inversion-equivalence gate: the one-walk blocked-extension query and the
# extension index's subset lookups must each match one subset probe per
# attribute across the 64/128-attribute word boundaries, an inversion job
# that removes nothing must build no index, and every inversion path must
# match the textbook per-attribute Algorithm 3 loop on a 70-attribute schema.
cargo test -q -p fd-core --test proptests blocked_extensions_match_per_attribute_probes
cargo test -q -p fd-core --test proptests extension_index_matches_per_attribute_probes
cargo test -q -p fd-core --lib cover::tests::a_job_whose_non_fds_remove_nothing_builds_no_index
cargo test -q -p fd-core --test proptests wide_inversion_matches_textbook_algorithm_3
# One-inversion gate: `PCover::invert_batch` is the only batch inversion. It
# matches one non-FD at a time at 1, 2 and 4 threads; under a budget that
# never trips it equals an unlimited run; a cancelled token or a past
# deadline stops every shard within one poll stride and leaves the rest for
# a drain that converges to the exact cover. HyFD inverts through it: it
# stays exact where witnesses appear on three levels, and a trip returns
# exactly the exact FDs below some level.
cargo test -q -p fd-core --test proptests parallel_inversion_matches_sequential
cargo test -q -p fd-core --lib cover::tests::inversion_under_a_live_budget_matches_unlimited
cargo test -q -p fd-core --lib cover::tests::precancelled_inversion_keeps_all_work
cargo test -q -p fd-core --lib cover::tests::a_past_deadline_stops_every_shard_within_one_poll_stride
cargo test -q -p fd-baselines --lib hyfd::tests::hyfd_is_exact_on_generated_data
cargo test -q -p fd-baselines --lib hyfd::tests::a_trip_returns_every_exact_fd_below_some_level
# Ncover gate: the one-tree negative cover (each LHS once, with an RHS
# mask) must match one textbook per-RHS store on random add / agree-set /
# rebuild sequences across the 64/128-attribute word boundaries, and both
# instances of the shared set tree must keep every cached intersection and
# mask union exact. A delete's one-pass Ncover rebuild must equal a fresh
# cover, and rebuilding a Pcover tree from the maximal survivors must equal
# rebuilding it from all of them. AID-FD's sampling and the agree-set
# collector, inside one large cluster, must stop within one poll stride of
# pairs after the poll that trips.
cargo test -q -p fd-core --test proptests ncover_matches_textbook_per_rhs_cover
cargo test -q -p fd-core --lib set_tree::tests::cached_summaries_match_the_leaves_beneath
cargo test -q -p fd-core --lib cover::tests::ncover_rebuild_matches_a_fresh_cover
cargo test -q -p fd-core --test proptests pcover_rebuild_from_maximal_survivors_matches_all_survivors
cargo test -q -p fd-baselines --lib aidfd::tests::a_pair_cap_stops_sampling_within_one_poll_stride
cargo test -q -p fd-baselines --lib agree::tests::a_cover_cap_stops_a_large_cluster_within_one_poll_stride
# Serving-layer gate: repeat reads share one cached, pre-rendered result and
# a per-version keys memo; a waited job leaves the job table, unclaimed ones
# are capped, and every blocked waiter still gets its result. The two
# cancellation tests hold the dataset lock, so the cancelled job is provably
# pending. The delta engine counts its cover without materializing it.
cargo test -q -p fd-server --lib server::tests::cache_hits_share_one_rendered_result
cargo test -q -p fd-server --lib server::tests::keys_are_memoized_per_dataset_version
cargo test -q -p fd-server --lib server::tests::waited_jobs_leave_the_job_table
cargo test -q -p fd-server --lib server::tests::unclaimed_results_are_capped_but_running_jobs_stay
cargo test -q -p fd-server --lib server::tests::every_waiter_blocked_on_a_job_receives_it
cargo test -q -p fd-server --lib jobs::tests::a_blocked_waiter_keeps_a_claimed_or_evicted_job
cargo test -q -p fd-server --lib server::tests::cancelled_job_never_mutates_the_result_cache
cargo test -q -p fd-server --features telemetry --lib server::tests::server_counters_join_the_snapshot
cargo test -q -p eulerfd --test proptests delta_engine_fd_count_matches_materialized_cover
# Delta-cost gate: the engine's patched row mirror and support multiset
# match a rebuild after random waves, the dense-slot pair enumeration
# reports each pair touching the delta exactly once, non-fresh masks see
# labels past the old bound and repeats within a batch, and an oversized
# encoded label is refused before the dataset mutates.
cargo test -q -p eulerfd --lib incremental::tests::mirror_and_support_track_random_waves
cargo test -q -p eulerfd --lib incremental::tests::pair_enumeration_reports_each_qualifying_pair_once
cargo test -q -p fd-relation --lib relation::tests::nonfresh_masks_see_labels_past_the_old_bound_and_repeats_in_the_batch
cargo test -q -p fd-relation --lib relation::tests::check_delta_rejects_what_apply_delta_cannot_take
cargo test -q -p fd-server --lib server::tests::delta_with_an_oversized_label_fails_without_mutating
# One-path gates: every protocol reply and the pretty `fd-telemetry/v1`
# export keep their exact bytes (golden replies built from fixed inputs, in
# both feature sets), and the one panic-isolation helper turns panics into
# errors, fires its deadline watchdog and retries only transient panics.
cargo test -q -p fd-server --lib protocol::tests::golden
cargo test -q -p fd-server --features telemetry --lib protocol::tests::golden
cargo test -q -p fd-telemetry --lib snapshot::tests::to_json_pins_the_pretty_v1_bytes
cargo test -q -p fd-telemetry --lib json::tests
cargo test -q -p fd-core --lib isolate::tests
# Discovery-contract gate: every algorithm answers
# `FdAlgorithm::discover_budgeted`; an unlimited budget is `discover` and
# converges, a cancelled one stops with `Cancelled` and sound exact FDs, and
# the agree-set collector refuses a pair cap it would exceed, before any
# compare, at 1 and 2 threads.
cargo test -q --test discovery_contract
cargo clippy --workspace --all-targets -- -D warnings -A clippy::needless_range_loop

# The benchmark (fdbench/, its own workspace) must keep compiling against
# the library crates it measures.
cargo build --release --offline --manifest-path fdbench/Cargo.toml

# Multi-core scaling gate (tests/gates.rs, lineitem 30k rows): packed-kernel
# speedup tripwire, byte-identical discovery output across worker counts,
# and (only when the host has >= 2 cores; auto-skipped on 1-core hosts) a
# 2-worker throughput floor of 1.2x for `agree_sets_batch` over fixed
# scattered pairs.
cargo test -q --release --test gates scaling_gate -- --ignored --nocapture

# Delta-maintenance gate (opt-in, tests/gates.rs, lineitem 8k rows):
# incremental re-discovery after a 1% row delta must cost <= 25% of a cold
# run and produce the byte-identical FD set; 0.1% and 5% points are
# measured alongside for the curve.
if [ "$RUN_DELTA_GATE" -eq 1 ]; then
    cargo test -q --release --test gates delta_gate -- --ignored --nocapture
fi

# Telemetry schema gate: build the telemetry-on binary, export a real
# metrics file from a real discovery run on the bundled paper example, and
# assert the fd-telemetry/v1 wire format (tests/metrics_schema.rs reads
# METRICS_JSON; no jq dependency).
cargo build --release --features telemetry
METRICS_TMP="$(mktemp /tmp/fdtool-metrics.XXXXXX.json)"
trap 'rm -f "$METRICS_TMP"' EXIT
./target/release/fdtool discover data/patient.csv --metrics-out "$METRICS_TMP" > /dev/null
METRICS_JSON="$METRICS_TMP" cargo test -q --features telemetry --test metrics_schema

# Server gate (opt-in): concurrent Session/Catalog smoke suite with the
# server telemetry counters armed, the CLI exit-code contract, and a live
# `fdtool serve` line-protocol round trip (register via --load, discover,
# delta, stats) driven through a shell pipe like a real client would.
if [ "$RUN_SERVER_GATE" -eq 1 ]; then
    cargo test -q --features telemetry --test server_smoke
    cargo test -q --test cli_args
    SERVE_OUT="$(printf 'discover patient\nstats\nquit\n' | \
        ./target/release/fdtool serve --load patient=data/patient.csv 2>/dev/null)"
    echo "$SERVE_OUT" | head -n1 | grep -q '"ok":true' \
        || { echo "server gate: discover over stdio failed: $SERVE_OUT" >&2; exit 1; }
    echo "$SERVE_OUT" | sed -n '2p' | grep -q '"jobs_completed":1' \
        || { echo "server gate: stats line wrong: $SERVE_OUT" >&2; exit 1; }
    echo "server gate: line protocol round trip OK"
fi

# Observability gate (opt-in): feature-off builds must compile the metrics
# plane away and answer clean "telemetry disabled" errors; then the live
# round trip — a real `fdtool serve` child with a 100 ms sampler, driven
# over its Unix socket — checks the acceptance criteria end to end.
if [ "$RUN_OBS_GATE" -eq 1 ]; then
    cargo test -q --no-default-features --test observability
    OBS_GATE=1 cargo test -q --features telemetry --test observability
    echo "observability gate: live metrics/subscribe/trace round trip OK"
fi

# Chaos gate (opt-in): 200 seeded fault schedules across EulerFD + Tane,
# plus the targeted degradation tests. `faults,telemetry` together so every
# fired fault is also checked against its `faults.fired.<site>` counter.
if [ "$RUN_CHAOS" -eq 1 ]; then
    cargo test -q --features faults,telemetry --test chaos
fi
