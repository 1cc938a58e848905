#pragma once

// Shared machinery for the figure/table reproduction benches.
//
// Every bench runs the benchmarks in TimingOnly mode: kernels and transfers
// advance the simulated clock via the cost model, while the dependency
// resolution (enumerators + trackers) executes for real, exactly as it would
// in the deployed runtime.  This allows the paper's full problem sizes
// (Table 1) to be evaluated.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/analyze.h"
#include "apps/drivers.h"
#include "apps/kernels.h"
#include "apps/workloads.h"
#include "rt/runtime.h"
#include "support/json.h"
#include "support/trace.h"

namespace polypart::benchutil {

/// Machine-readable companion to the human-readable stdout tables: every
/// figure/table bench opens a report in main() and appends one JSON object
/// per printed row; the file `BENCH_<name>.json` is written in the working
/// directory at process exit, next to the `bench_results/*.txt` stdout
/// captures (EXPERIMENTS.md), so the perf trajectory is diffable across
/// revisions.  The google-benchmark micros are excluded — they already emit
/// JSON natively via `--benchmark_out`.
class JsonReport {
 public:
  static JsonReport& instance() {
    static JsonReport report;
    return report;
  }

  void open(std::string benchName) { name_ = std::move(benchName); }

  /// Appends and returns a fresh row object; fill it with scalar metrics.
  json::Value& row() {
    rows_.push(json::Value::object());
    return rows_.asArray().back();
  }

  ~JsonReport() {
    if (name_.empty()) return;
    json::Value doc = json::Value::object();
    doc["bench"] = name_;
    doc["rows"] = rows_;
    const std::string path = "BENCH_" + name_ + ".json";
    if (std::FILE* f = std::fopen(path.c_str(), "w")) {
      const std::string text = doc.dump(2);
      std::fwrite(text.data(), 1, text.size(), f);
      std::fputc('\n', f);
      std::fclose(f);
    }
  }

 private:
  JsonReport() : rows_(json::Value::array()) {}

  std::string name_;
  json::Value rows_;
};

/// Shorthands for the benches' row sites.
inline void openBenchReport(const char* name) {
  JsonReport::instance().open(name);
}
inline json::Value& benchRow() { return JsonReport::instance().row(); }

/// Process-wide POLYPART_TRACE hook: null unless the environment variable is
/// set, in which case the trace of every partitioned run is written to the
/// given path (and the phase-breakdown summary printed) at process exit.
inline trace::Tracer* envTracer() {
  static trace::EnvTraceSession session;
  return session.tracer();
}

/// Cached device module + application model (the analysis runs once per
/// process).
inline const ir::Module& module() {
  static ir::Module m = apps::buildBenchmarkModule();
  return m;
}

inline const analysis::ApplicationModel& model() {
  static analysis::ApplicationModel m = analysis::analyzeModule(module());
  return m;
}

struct RunResult {
  double seconds = 0;
  rt::RuntimeStats runtime;
  sim::MachineStats machine;
};

/// Drives one benchmark through the partitioned runtime.
inline RunResult runPartitioned(apps::Benchmark b, i64 n, int iters, int gpus,
                                bool transfers = true, bool resolution = true) {
  rt::RuntimeConfig cfg;
  cfg.numGpus = gpus;
  cfg.mode = sim::ExecutionMode::TimingOnly;
  cfg.enableTransfers = transfers;
  cfg.enableDependencyResolution = resolution;
  // The paper's runtime re-enumerates the dependency patterns on every
  // launch; the reproduction benches model that system, so the launch-plan
  // cache (an extension) stays off here.  bench/cache_repeat_launch measures
  // the cache itself.
  cfg.enableEnumerationCache = false;
  cfg.tracer = envTracer();
  rt::Runtime rt(cfg, model(), module());
  switch (b) {
    case apps::Benchmark::Hotspot:
      apps::runHotspot(rt, n, iters, nullptr, nullptr);
      break;
    case apps::Benchmark::NBody: {
      apps::NBodyState st{nullptr, nullptr, nullptr, nullptr, nullptr, nullptr, nullptr};
      apps::runNBody(rt, n, iters, st);
      break;
    }
    case apps::Benchmark::Matmul:
      apps::runMatmul(rt, n, nullptr, nullptr, nullptr);
      break;
  }
  return RunResult{rt.elapsedSeconds(), rt.stats(), rt.machineStats()};
}

/// The single-device reference binary (paper: "produced by NVIDIA's NVCC").
inline double runReference(apps::Benchmark b, i64 n, int iters) {
  sim::Machine m(sim::MachineSpec::k80Node(1), sim::ExecutionMode::TimingOnly);
  switch (b) {
    case apps::Benchmark::Hotspot:
      apps::referenceHotspot(m, n, iters, nullptr, nullptr);
      break;
    case apps::Benchmark::NBody: {
      apps::NBodyState st{nullptr, nullptr, nullptr, nullptr, nullptr, nullptr, nullptr};
      apps::referenceNBody(m, n, iters, st);
      break;
    }
    case apps::Benchmark::Matmul:
      apps::referenceMatmul(m, n, nullptr, nullptr, nullptr);
      break;
  }
  return m.completionTime();
}

/// Iteration count for a config, honoring an optional --iters-scale=F
/// argument (benches default to the paper's full counts).
inline int scaledIters(const apps::WorkloadConfig& cfg, double scale) {
  int iters = static_cast<int>(static_cast<double>(cfg.iterations) * scale);
  return iters < 1 ? 1 : iters;
}

/// Parses `--iters-scale=<f>` from argv (1.0 when absent).
inline double parseItersScale(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const char* prefix = "--iters-scale=";
    if (std::strncmp(argv[i], prefix, std::strlen(prefix)) == 0)
      return std::atof(argv[i] + std::strlen(prefix));
  }
  return 1.0;
}

/// Command line for the google-benchmark micros: argv without any
/// `--iters-scale=<f>` (google-benchmark rejects flags it does not know).  A
/// scale below 1 shortens each benchmark's minimum measuring time (0.5 s by
/// default) in proportion, floored at 1 ms, unless --benchmark_min_time is
/// given explicitly.
inline std::vector<std::string> microbenchArgs(int argc, char** argv) {
  const char* scalePrefix = "--iters-scale=";
  const char* minTimePrefix = "--benchmark_min_time=";
  std::vector<std::string> args;
  bool minTimeGiven = false;
  for (int i = 0; i < argc; ++i) {
    if (i > 0 && std::strncmp(argv[i], scalePrefix, std::strlen(scalePrefix)) == 0)
      continue;
    if (std::strncmp(argv[i], minTimePrefix, std::strlen(minTimePrefix)) == 0)
      minTimeGiven = true;
    args.emplace_back(argv[i]);
  }
  const double scale = parseItersScale(argc, argv);
  if (scale < 1.0 && !minTimeGiven) {
    const double seconds = scale * 0.5 > 0.001 ? scale * 0.5 : 0.001;
    args.push_back(minTimePrefix + std::to_string(seconds));
  }
  return args;
}

/// main() of the google-benchmark micros: BENCHMARK_MAIN() over
/// microbenchArgs(), so they accept --iters-scale like every other bench.
/// Include <benchmark/benchmark.h> before expanding it.
#define PP_MICROBENCH_MAIN()                                              \
  int main(int argc, char** argv) {                                       \
    std::vector<std::string> args =                                       \
        ::polypart::benchutil::microbenchArgs(argc, argv);                \
    std::vector<char*> ptrs;                                              \
    for (std::string& a : args) ptrs.push_back(a.data());                 \
    int n = static_cast<int>(ptrs.size());                                \
    ::benchmark::Initialize(&n, ptrs.data());                             \
    if (::benchmark::ReportUnrecognizedArguments(n, ptrs.data())) return 1; \
    ::benchmark::RunSpecifiedBenchmarks();                                \
    ::benchmark::Shutdown();                                              \
    return 0;                                                             \
  }

inline void printHeader(const char* what, const char* paperRef) {
  std::printf("==============================================================\n");
  std::printf("%s\n", what);
  std::printf("Reproduces: %s\n", paperRef);
  std::printf("Machine model: 16x K80-class GPUs, PCIe (see sim/spec.h)\n");
  std::printf("==============================================================\n");
}

}  // namespace polypart::benchutil
