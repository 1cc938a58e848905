#!/usr/bin/env bash
# One-command CI gate: tier-1 build + full ctest (the byte-for-byte
# reproduction goldens included), an ASan+UBSan configuration, and a TSan
# configuration covering the code that stays thread-safe for runtimes on
# several threads (the tracer, pset's FM memo, the specialized-program cache,
# ir::Kernel::program()) — the same recipes .claude/skills/verify/SKILL.md
# documents, run back to back.
#
#   scripts/check.sh            # everything (tier-1, benchsmoke, perfbench, asan, tsan, bytecode, dataflow, repartition, irregular)
#   scripts/check.sh tier1      # just the default build + full test suite
#   scripts/check.sh perfbench  # the benchmark harness's own unit tests
#   scripts/check.sh asan tsan  # just the sanitizer configurations
#   scripts/check.sh bytecode   # sanitizer trees re-run under the bytecode tier
#   scripts/check.sh dataflow   # sanitizer trees re-run with dataflow planning on
#   scripts/check.sh repartition # sanitizer trees re-run with repartitioning allowed
#   scripts/check.sh irregular  # sanitizer trees re-run with the inspector-executor on
#   scripts/check.sh benchsmoke # every build/bench binary at --iters-scale=0.02
#
# Each configuration uses its own build tree (build/, build-asan/, build-tsan/;
# all gitignored).  TSan cannot be combined with ASan in one tree — the
# top-level CMakeLists enforces that — hence the separate configurations.
set -euo pipefail

cd "$(dirname "$0")/.."
jobs=$(nproc 2>/dev/null || echo 4)
stages=("$@")
[ ${#stages[@]} -eq 0 ] && stages=(tier1 benchsmoke perfbench asan tsan bytecode dataflow repartition irregular)

run() {
  echo
  echo "== $* =="
  "$@"
}

# One knob stage: rebuild both sanitizer trees, then run the ASan+UBSan
# selection and the TSan selection with VAR=VALUE exported, each followed by
# the fuzz suites.  An empty ASAN_REGEX runs the whole non-fuzz suite.
#   knob_stage VAR=VALUE ASAN_REGEX TSAN_REGEX
knob_stage() {
  local knob=$1 asan_regex=$2 tsan_regex=$3
  local asan_select=()
  [ -n "$asan_regex" ] && asan_select=(-R "$asan_regex")
  run cmake -B build-asan -S . -DPOLYPART_SANITIZE=address,undefined
  run cmake --build build-asan -j "$jobs"
  run env "$knob" \
    ctest --test-dir build-asan -j "$jobs" --output-on-failure \
    "${asan_select[@]}" -LE fuzz
  run env "$knob" \
    ctest --test-dir build-asan -j "$jobs" --output-on-failure -L fuzz
  run cmake -B build-tsan -S . -DPOLYPART_SANITIZE=thread
  run cmake --build build-tsan -j "$jobs"
  run env "$knob" \
    ctest --test-dir build-tsan -j "$jobs" --output-on-failure \
    -R "$tsan_regex" -LE fuzz
  run env "$knob" \
    ctest --test-dir build-tsan -j "$jobs" --output-on-failure -L fuzz
}

for stage in "${stages[@]}"; do
  case "$stage" in
    tier1)
      # The seed's build/ tree uses Unix Makefiles; never pass -G here.
      run cmake -B build -S .
      run cmake --build build -j "$jobs"
      run ctest --test-dir build -j "$jobs" --output-on-failure
      # Fastest end-to-end smoke of the whole pipeline, with tracing live:
      # quickstart self-verifies and the exported trace must be parseable
      # (the trace_test suite parses it properly; this just proves the env
      # hook writes a file).
      trace_out=$(mktemp /tmp/polypart-trace.XXXXXX.json)
      run env POLYPART_TRACE="$trace_out" ./build/examples/quickstart
      [ -s "$trace_out" ] || { echo "POLYPART_TRACE wrote no trace"; exit 1; }
      rm -f "$trace_out"
      ;;
    perfbench)
      # The benchmark's own tests: BENCHMARK.json's metric names and bounds,
      # every workload emitting every declared metric through
      # perfbench/run.py (which builds its driver under .bench_build/), and
      # seed-independent modeled counters.
      run python3 -m unittest discover -s perfbench/tests
      ;;
    asan)
      run cmake -B build-asan -S . -DPOLYPART_SANITIZE=address,undefined
      run cmake --build build-asan -j "$jobs"
      run ctest --test-dir build-asan -j "$jobs" --output-on-failure -LE fuzz
      # The randomized differential suites (label `fuzz`, tests/fuzz_util.h)
      # run as their own step so a generator regression is visible at a
      # glance; failures print a POLYPART_FUZZ_SEED replay line.
      run ctest --test-dir build-asan -j "$jobs" --output-on-failure -L fuzz
      ;;
    tsan)
      run cmake -B build-tsan -S . -DPOLYPART_SANITIZE=thread
      run cmake --build build-tsan -j "$jobs"
      # The thread-sensitive suites (runtime, cache, tracker, tracer, and the
      # multi-tenant fuzz) — the full suite under TSan is needlessly slow.
      run ctest --test-dir build-tsan -j "$jobs" --output-on-failure \
        -R 'Runtime|EnumCache|Tracker|Trace|PipelineFuzz' \
        -LE fuzz
      run ctest --test-dir build-tsan -j "$jobs" --output-on-failure -L fuzz
      ;;
    bytecode)
      # Enumerator bytecode-VM tier pass: POLYPART_ENUMERATOR_TIER flips the
      # RuntimeConfig *default*, so every suite that does not pin the knob
      # re-runs on the compiled tier (configs that set enumeratorTier
      # explicitly — e.g. the tier sweep — still test what they name).
      # Under TSan the selection is the tsan stage's thread-sensitive one:
      # the compiled tier adds the specialized-program cache, which must stay
      # safe to share.
      knob_stage POLYPART_ENUMERATOR_TIER=bytecode '' \
        'Runtime|EnumCache|Tracker|Trace|PipelineFuzz'
      ;;
    dataflow)
      # Cross-launch dataflow planning pass: POLYPART_DATAFLOW_PLANNING=1
      # flips the RuntimeConfig *default* (rt/runtime.cpp), so every suite
      # that does not pin the knob re-runs with plan compilation, eager
      # prefetch, and dead-transfer elision live on the launch path.  The
      # planner touches the tracker from the commit path and skips the
      # per-launch barriers, so ASan/UBSan and TSan both matter here; the
      # dataflow and determinism suites plus the randomized differential
      # fuzz runs are the selection.
      knob_stage POLYPART_DATAFLOW_PLANNING=1 \
        'Dataflow|CacheCounters|Runtime|TransferPlan|Tracker' \
        'Dataflow|CacheCounters|Runtime|TransferPlan|Tracker'
      ;;
    repartition)
      # Elastic repartitioning pass: POLYPART_ALLOW_REPARTITIONING=1 flips
      # the RuntimeConfig *default* (rt/runtime.cpp), so every suite runs
      # with the repartition entry points armed — the knob-off error paths
      # pin allowRepartitioning=false explicitly and still test what they
      # name.  The repartition/checkpoint suites exercise migration,
      # host-side checkpointing, and device-failure recovery under ASan/
      # UBSan and TSan.
      knob_stage POLYPART_ALLOW_REPARTITIONING=1 \
        'Repartition|Checkpoint|EnvKnobs|Dataflow|Runtime|TransferPlan|Tracker' \
        'Repartition|Checkpoint|Runtime'
      ;;
    irregular)
      # May-access tier pass: POLYPART_INSPECTOR_EXECUTOR=1 flips the
      # RuntimeConfig *default* (rt/runtime.cpp), so the irregular battery
      # and the inspector fuzz suite re-run with the inspection walk, the
      # footprint cache, and the tightened synchronization live on the
      # launch path (configs that pin inspectorExecutor explicitly — the
      # whole-buffer halves of the differential tests — still test what
      # they name).  ASan/UBSan covers the host-side mirrors and range
      # coalescing; TSan runs the inspector suites too.
      knob_stage POLYPART_INSPECTOR_EXECUTOR=1 \
        'Irregular|Dynamic|Analysis|EnvKnobs|Runtime|Sweep|Repartition|Checkpoint' \
        'Irregular|InspectorFuzz|Runtime'
      ;;
    benchsmoke)
      # Every bench binary must run to completion at a tiny scale: the
      # figure benches and the google-benchmark micros alike accept
      # --iters-scale (bench/bench_util.h).  Run from a scratch directory,
      # because the figure benches write BENCH_<name>.json into the working
      # directory.
      run cmake -B build -S .
      run cmake --build build -j "$jobs"
      smoke_dir=$(mktemp -d /tmp/polypart-benchsmoke.XXXXXX)
      for bench in build/bench/*; do
        [ -f "$bench" ] && [ -x "$bench" ] || continue
        echo "-- $(basename "$bench")"
        (cd "$smoke_dir" && "$OLDPWD/$bench" --iters-scale=0.02 > /dev/null) ||
          { echo "benchsmoke: $(basename "$bench") exited nonzero"; exit 1; }
      done
      rm -rf "$smoke_dir"
      ;;
    *)
      echo "unknown stage '$stage' (expected: tier1, perfbench, asan, tsan, bytecode, dataflow, repartition, irregular, benchsmoke)" >&2
      exit 2
      ;;
  esac
done

echo
echo "check.sh: all stages passed (${stages[*]})"
