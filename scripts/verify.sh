#!/usr/bin/env sh
# Repo verification gate, split into composable steps so CI can run (and
# report) each one separately while local use stays one command:
#
#   scripts/verify.sh            # everything, in order (same as `all`)
#   scripts/verify.sh all        # fmt, build, lint, doc, test, perf,
#                                # bench, smoke, tournament, corpus,
#                                # chaos, service
#   scripts/verify.sh fmt        # cargo fmt --check (first CI step)
#   scripts/verify.sh build      # cargo build --release --locked
#   scripts/verify.sh lint       # cargo clippy --workspace --all-targets
#                                # -- -D warnings (tests, benches and
#                                # test-only modules included)
#   scripts/verify.sh doc        # cargo doc --workspace --no-deps with
#                                # rustdoc warnings denied (broken or
#                                # ambiguous intra-doc links fail)
#   scripts/verify.sh test       # cargo test --workspace -q (every
#                                # crate's tests, not just the root
#                                # package's)
#   scripts/verify.sh perf       # speed gate: perfbench's calibrated
#                                # untraced ops_per_s for `simulate` and
#                                # `compile` must stay above fixed floors
#   scripts/verify.sh bench      # perfbench self-tests: metric names match
#                                # BENCHMARK.json, the compile mirror equals
#                                # try_compile, workloads are deterministic
#   scripts/verify.sh smoke      # whole_program --smoke
#   scripts/verify.sh tournament # policy-tournament gate: portfolio
#                                # dominance over every fixed column,
#                                # winner determinism at 1/2/8 workers,
#                                # CSV byte-stability, shape-cache hot
#                                # path
#   scripts/verify.sh corpus     # trace-corpus gate: replay every entry
#                                # under tests/corpus/ (zero drift, <10 s),
#                                # then a 500-fault + coverage-guided fuzz
#                                # smoke that admits nothing; summary at
#                                # target/gate/corpus_summary.json
#   scripts/verify.sh chaos [N]  # fault-injection campaign (default 500)
#   scripts/verify.sh service [N] # compile-service gate: concurrent soak
#                                # with ~5% injected faults (default 200
#                                # requests), then a full service-level
#                                # chaos campaign (500 faults, 4 clients)
#
# Steps may be chained: `scripts/verify.sh fmt build lint`.
#
# Environment knobs (all optional):
#
#   CHF_JOBS                 Worker count for the parallel evaluation
#                            harness (default: available parallelism).
#   CHF_FAULT_SEED           Pins the `chaos` campaign's fault stream so a
#                            CI failure is replayable locally.
#   CHF_CORPUS_REPLAY_CEILING_S  Wall-time budget for the `corpus` replay
#                            pass (default 10). Raise on slow machines —
#                            or prune the corpus.
#   CHF_BLESS                Set to re-capture golden snapshots under
#                            `test` after an intentional formation change.
set -eu

cd "$(dirname "$0")/.."

run_fmt() {
    echo "==> cargo fmt --check"
    cargo fmt --all -- --check
}

run_build() {
    # --locked: any Cargo.lock drift (a dependency edit without a committed
    # lockfile update) fails here, fast, instead of surfacing as confusing
    # cache misses or version skew in later steps.
    echo "==> cargo build --release --locked"
    cargo build --release --locked
}

run_lint() {
    echo "==> cargo clippy --workspace --all-targets -- -D warnings"
    cargo clippy --workspace --all-targets -- -D warnings
}

run_doc() {
    echo "==> cargo doc --workspace --no-deps (RUSTDOCFLAGS=-D warnings)"
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
}

run_test() {
    echo "==> cargo test --workspace -q"
    cargo test --workspace -q
}

# The speed gate. Runs the repository benchmark (the BENCHMARK.json
# command) untraced on seed 1 and fails when a workload's end-to-end
# ops_per_s falls below its floor. ops_per_s is the median over the run's
# timed passes, scaled by perfbench's calibration kernel to the reference
# machine's speed, so the floors are constants and need no per-machine knob.
#
#   simulate  the simulator throughput floor: a return to the legacy
#             direct-interpretation timing core reads ~2900 against ~4400.
#   compile   the Table 1 ceiling (Table 1's cost is ~95% compile): undoing
#             clean-block skipping reads ~255 against ~375.
#
# Each floor sits about halfway, on a log scale, between the slowest run
# measured on the 2-core reference machine and the fastest sabotaged run
# (CHANGES.md has the numbers). Run lengths give each run at least
# PERF_MIN_PASSES timed passes on that machine even under neighbour load;
# a run with fewer fails rather than gate on a thin median.
PERF_MIN_PASSES=7

# perf_floor WORKLOAD SECONDS FLOOR
perf_floor() {
    if ! out="$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$1" --seed 1 --seconds "$2" --trace 0 2>&1)"; then
        printf '%s\n' "${out}"
        echo "perf: perfbench $1 failed" >&2
        return 1
    fi
    ops="$(printf '%s\n' "${out}" | awk '$1 == "ops_per_s" { print $2 }')"
    passes="$(printf '%s\n' "${out}" | awk '/ timed passes, / { print $1 }')"
    echo "perf: $1 ops_per_s ${ops} (floor $3, ${passes} timed passes)"
    rc=0
    if ! awk -v ops="${ops:-0}" -v floor="$3" 'BEGIN { exit !(ops >= floor) }'; then
        echo "perf: $1 ops_per_s ${ops} is below the floor $3" >&2
        rc=1
    fi
    if [ "${passes:-0}" -lt "${PERF_MIN_PASSES}" ]; then
        echo "perf: $1 ran ${passes:-0} timed passes, fewer than ${PERF_MIN_PASSES}" >&2
        rc=1
    fi
    return "${rc}"
}

run_perf() {
    echo "==> perfbench simulate + compile (calibrated ops_per_s floors)"
    perf_floor simulate 8 3600
    perf_floor compile 16 305
}

# Runs the repository benchmark's own tests (perfbench is not a workspace
# member, so `test` does not reach them): emitted metric names and units
# match BENCHMARK.json, the traced compile mirror is byte-identical to
# try_compile on both paper suites under all five orderings, generated
# slices repeat per seed, and one pass of each workload gives the same
# exact results untraced and traced.
run_bench() {
    echo "==> perfbench self-tests"
    cargo test --release --offline --manifest-path perfbench/Cargo.toml
}

# Cycle-simulates a bounded prefix of the SPEC-like composite workloads
# end-to-end through the event-driven core and checks the
# measured-vs-model comparison is produced.
run_smoke() {
    echo "==> whole_program --smoke (whole-program cycle-simulation smoke)"
    cargo run --release -p chf-bench --bin whole_program -- --smoke
}

# Runs the per-function policy-tournament gate over the 19 composites:
# the portfolio winner must dominate every fixed policy column, winners
# and the table2_budget CSV (portfolio columns included) must be
# byte-identical at 1/2/8 workers and match the committed archive, and a
# second pass through one service must be answered by the CFG-shape
# winner cache (hot path = one entrant). On CSV mismatch the regenerated
# file is left at results/table2_budget.regenerated.csv as a failure
# artifact.
run_tournament() {
    echo "==> tournament (policy-tournament + shape-cache gate)"
    cargo run --release -p chf-bench --bin tournament
}

# Replays every persistent trace-corpus entry through compile → oracle →
# event-sim and fails on any digest or outcome drift, then runs the
# CI-blocking fuzz smoke (500 chaos faults feeding the coverage map plus a
# short coverage-guided generation loop). --no-admit keeps the committed
# corpus as it is, so every run replays the same entries; admitting new
# ones is the nightly `fuzz --long` campaign's job. The one-line JSON
# summary lands in target/gate/corpus_summary.json for CI failure
# artifacts.
run_corpus() {
    echo "==> fuzz --smoke --no-admit (trace-corpus replay + coverage-guided fuzz smoke)"
    cargo run --release -p chf-bench --bin fuzz -- --smoke --no-admit
}

# Injects N seeded faults (IR corruption, profile corruption, scrambled
# ordering inputs, mid-trial corruption) and fails on any process abort
# or undetected miscompile.
run_chaos() {
    faults="${1:-500}"
    echo "==> chaos ${faults} (fault-injection smoke campaign)"
    cargo run --release -p chf-bench --bin chaos -- "${faults}"
}

# Soaks a live compile service with concurrent clients (~5% of requests
# carry an injected fault), requiring every request to reach a terminal
# state with sane stats, then runs the full service-level chaos campaign
# (all fault kinds incl. corrupted-cache-entry, 4 concurrent clients,
# zero aborts / miscompiles / hung requests). The service's stats snapshot
# lands in target/gate/service_stats.json for CI failure artifacts.
run_service() {
    requests="${1:-200}"
    echo "==> chaos --service-soak ${requests} (compile-service soak smoke)"
    cargo run --release -p chf-bench --bin chaos -- --service-soak "${requests}" --clients 8
    echo "==> chaos --service 500 (service-level fault campaign)"
    cargo run --release -p chf-bench --bin chaos -- --service 500 --clients 4
}

run_all() {
    run_fmt
    run_build
    run_lint
    run_doc
    run_test
    run_perf
    run_bench
    run_smoke
    run_tournament
    run_corpus
    run_chaos "${1:-500}"
    run_service
}

if [ "$#" -eq 0 ]; then
    run_all
    echo "verify.sh: all checks passed"
    exit 0
fi

while [ "$#" -gt 0 ]; do
    step="$1"
    shift
    case "${step}" in
        fmt) run_fmt ;;
        build) run_build ;;
        lint) run_lint ;;
        doc) run_doc ;;
        test) run_test ;;
        perf) run_perf ;;
        bench) run_bench ;;
        smoke) run_smoke ;;
        tournament) run_tournament ;;
        corpus) run_corpus ;;
        chaos)
            # Optional numeric fault count following `chaos`.
            case "${1:-}" in
                '' | *[!0-9]*) run_chaos ;;
                *)
                    run_chaos "$1"
                    shift
                    ;;
            esac
            ;;
        service)
            # Optional numeric soak-request count following `service`.
            case "${1:-}" in
                '' | *[!0-9]*) run_service ;;
                *)
                    run_service "$1"
                    shift
                    ;;
            esac
            ;;
        all) run_all ;;
        *)
            echo "verify.sh: unknown step '${step}'" >&2
            echo "usage: scripts/verify.sh [fmt|build|lint|doc|test|perf|bench|smoke|tournament|corpus|chaos [N]|service [N]|all]..." >&2
            exit 2
            ;;
    esac
done

echo "verify.sh: requested checks passed"
