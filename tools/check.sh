#!/bin/sh
# One-shot correctness gate for tglink — the repo's CI entrypoint.
#
#   tools/check.sh            # Release + ASan/UBSan presets, tests, lint
#   tools/check.sh --quick    # Release preset + lint only
#
# Exits non-zero on the first failing stage. Stages that need LLVM tooling
# (clang++ for the analyze preset, clang-tidy for the tidy preset) are
# skipped — and reported as skipped in the end-of-run summary — when the
# binary is missing; everything else is mandatory.

set -eu

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"

quick=0
[ "${1:-}" = "--quick" ] && quick=1

jobs="$(nproc 2>/dev/null || echo 4)"

# Stage ledger for the end-of-run summary: one "status<TAB>name" line per
# top-level stage, printed as a table once every mandatory stage passed.
ledger=""

stage() {
  printf '\n=== %s ===\n' "$1"
}

note() {
  # note <ran|SKIPPED> <stage name> [reason]
  ledger="${ledger}$1	$2	${3:-}
"
}

summary() {
  printf '\n=== summary ===\n'
  printf '%s' "$ledger" | while IFS='	' read -r status name reason; do
    [ -n "$name" ] || continue
    if [ -n "$reason" ]; then
      printf '  %-8s %s (%s)\n' "$status" "$name" "$reason"
    else
      printf '  %-8s %s\n' "$status" "$name"
    fi
  done
}

run_preset() {
  preset="$1"
  stage "configure+build: $preset"
  cmake --preset "$preset"
  cmake --build --preset "$preset" -j "$jobs"
  stage "ctest: $preset"
  ctest --preset "$preset"
  note ran "$preset preset"
}

stage "tglink_lint self-test"
python3 tools/tglink_lint.py --selftest
note ran "lint self-test"

stage "tglink_lint"
python3 tools/tglink_lint.py --root "$root"
note ran "lint"

run_preset release

# Perf smoke: a scaled-down bench run must produce a schema-valid RunReport
# and a loadable Chrome trace (tools/check_report.py validates both). This is
# the gate that keeps the --report/--trace plumbing and the pipeline's span/
# counter instrumentation alive.
stage "perf smoke: table5_iterative --report/--trace"
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT
"$root/build-release/bench/table5_iterative" --scale=0.05 \
  --report="$smoke_dir/report.json" --trace="$smoke_dir/trace.json" \
  > "$smoke_dir/stdout.txt"
python3 tools/check_report.py "$smoke_dir/report.json" \
  --trace "$smoke_dir/trace.json" \
  --expect-span linkage.link_census_pair \
  --expect-span linkage.iteration \
  --expect-span prematch.score \
  --expect-span prematch.keep \
  --expect-span subgraph.build_score \
  --expect-span selection.greedy \
  --expect-span residual.global \
  --expect-counter linkage.iterations \
  --expect-counter blocking.candidate_pairs \
  --expect-counter similarity.agg_calls \
  --expect-counter prematch.store_bytes \
  --expect-counter simkernel.screened \
  --expect-counter simkernel.dice_acc_builds \
  --expect-counter subgraph.potential_pairs
note ran "perf smoke"

# Perf gate: re-run the smoke-scale table5 bench under the memory profiler
# and diff it against the checked-in baseline. The pipeline is deterministic,
# so quality figures, count scalars and arena bytes are gated EXACTLY; wall
# time and RSS get wide tolerances (50%, with absolute floors) so only real
# regressions fail, never machine noise. The comparator selftests (and the
# paired-run judge's) run first so a broken gate can't silently pass.
stage "perf gate: bench_diff vs BENCH_table5_smoke.json"
python3 tools/check_report.py --selftest
python3 tools/bench_diff.py --selftest
python3 tools/paired_bench.py --selftest
TGLINK_MEMPROF=1 "$root/build-release/bench/table5_iterative" --scale=0.125 \
  --report="$smoke_dir/perf_gate.json" > "$smoke_dir/perf_gate_stdout.txt"
python3 tools/check_report.py "$smoke_dir/perf_gate.json"
python3 tools/bench_diff.py BENCH_table5_smoke.json "$smoke_dir/perf_gate.json"
# Self-compare is the gate's own sanity check: identical inputs, exit 0.
python3 tools/bench_diff.py "$smoke_dir/perf_gate.json" \
  "$smoke_dir/perf_gate.json"
note ran "perf gate"

# Scenario matrix: the iterative method across every scenario preset
# (smallest smoke scale), diffed against the checked-in per-scenario
# baseline. Quality counts are deterministic per preset, so any drift in
# the generator, a preset file, or the linker shows here exactly.
stage "scenario matrix: all presets vs BENCH_scenario_matrix.json"
"$root/build-release/bench/scenario_matrix" --scale=0.05 \
  --report="$smoke_dir/scenario_matrix.json" \
  > "$smoke_dir/scenario_matrix_stdout.txt"
python3 tools/check_report.py "$smoke_dir/scenario_matrix.json"
python3 tools/bench_diff.py BENCH_scenario_matrix.json \
  "$smoke_dir/scenario_matrix.json"
note ran "scenario matrix"

# Compile-time concurrency gate: the analyze preset builds the whole library
# under clang++ with -Werror=thread-safety-analysis, then runs the
# annotation tests — including the WILL_FAIL entry proving a GUARDED_BY
# violation does NOT compile. Clang-only by nature (GCC has no thread-safety
# analysis), so the stage skips gracefully on GCC-only machines.
if command -v clang++ >/dev/null 2>&1; then
  stage "configure+build: analyze (thread-safety as errors)"
  cmake --preset analyze
  cmake --build --preset analyze -j "$jobs"
  stage "ctest: analyze (annotation + violation tests)"
  ctest --preset analyze -R \
    '^(thread_annotations_test|thread_annotations_violation_must_not_compile)$'
  note ran "analyze preset"
else
  stage "analyze: clang++ not installed, skipped"
  note SKIPPED "analyze preset" "no clang++"
fi

if [ "$quick" -eq 0 ]; then
  run_preset asan

  # Fuzz smoke under ASan+UBSan (~30 s): each harness replays its seed
  # corpus, then runs a deterministic mutation loop against its parser.
  # Finds memory errors and round-trip violations in the ingestion layer
  # before any real corpus ever does.
  stage "fuzz smoke (asan preset, 10 s per target)"
  for target in fuzz_csv fuzz_census_io fuzz_result_io fuzz_scenario; do
    corpus="${target#fuzz_}"
    "$root/build-asan/tests/fuzz/$target" --time_budget_s=10 \
      --runs=2000000 "$root/tests/fuzz/corpus/$corpus"
  done
  note ran "fuzz smoke"

  # The multi-threaded surface — pool, similarity scorer, obs — under TSan.
  # Scoped to the thread-hammer tests so the stage stays bounded; the full suite
  # already runs under release and asan above. The kernel property suite
  # runs as its _mt twin (one worker per hardware thread, and its memo test
  # at 4), prematching_test's cluster oracle at 1 and 2 threads.
  stage "configure+build: tsan (threaded tests)"
  cmake --preset tsan
  cmake --build --preset tsan -j "$jobs" \
    --target obs_threads_test parallel_test parallel_determinism_test \
             thread_annotations_test tsan_hammer_test \
             subgraph_equivalence_test subgraph_test \
             similarity_kernel_property_test prematching_test
  stage "ctest: tsan (threaded tests)"
  ctest --preset tsan -R '^(obs_threads_test|parallel_test|parallel_determinism_test|thread_annotations_test|tsan_hammer_test|subgraph_equivalence_test|subgraph_test|similarity_kernel_property_test_mt|prematching_test)$'
  note ran "tsan hammers"

  # Line-coverage floor over the blocking and similarity layers (gcov only —
  # no lcov on the reference machine). Every candidate the pipeline ever
  # scores comes out of src/tglink/blocking/, and every pair score out of
  # src/tglink/similarity/, so untested lines in either are a gate failure.
  stage "configure+build: coverage (blocking + similarity suites)"
  cmake --preset coverage
  cmake --build --preset coverage -j "$jobs" \
    --target blocking_test candidate_index_test \
             candidate_index_property_test sorted_neighborhood_test \
             qgram_test alignment_test double_metaphone_test \
             measure_properties_test edit_distance_test jaro_test \
             phonetic_test numeric_token_test composite_test \
             sim_batch_test similarity_kernel_property_test
  stage "ctest: coverage (blocking + similarity suites)"
  find "$root/build-coverage" -name '*.gcda' -delete
  ctest --preset coverage -R \
    '^(blocking_test|candidate_index_test|candidate_index_property_test(_mt)?|sorted_neighborhood_test|qgram_test|alignment_test|double_metaphone_test|measure_properties_test|edit_distance_test|jaro_test|phonetic_test|numeric_token_test|composite_test|sim_batch_test|similarity_kernel_property_test(_mt)?)$'
  stage "coverage gate: blocking + similarity >= 90% lines"
  python3 tools/check_coverage.py --build-dir "$root/build-coverage" \
    --filter src/tglink/blocking/ --filter src/tglink/similarity/ \
    --min-percent 90
  note ran "coverage gate"
else
  note SKIPPED "asan preset" "--quick"
  note SKIPPED "fuzz smoke" "--quick"
  note SKIPPED "tsan hammers" "--quick"
  note SKIPPED "coverage gate" "--quick"
fi

if command -v clang-tidy >/dev/null 2>&1; then
  stage "clang-tidy (tidy preset)"
  cmake --preset tidy
  cmake --build --preset tidy -j "$jobs"
  note ran "clang-tidy"
else
  stage "clang-tidy: not installed, skipped"
  note SKIPPED "clang-tidy" "not installed"
fi

summary
stage "all checks passed"
