// Benchmark driver: one process runs one session of one named workload.
//
// A session is what a user of the toolchain waits for: build the device
// module, analyze it, construct the runtime (set-up), then run the host
// program.  The timed phase is a closed loop with one client thread: each
// launch is issued after the previous one returns, and the loop repeats
// identical *episodes* until the time budget is spent.  An episode is the
// whole host program on a fresh Runtime: malloc, H2D, a fixed number of
// launches, D2H, synchronize, free.  Fresh runtimes make every episode's
// modeled outcome (simulated seconds, bytes, copies, ranges) identical,
// which is checked, so the deterministic metrics do not depend on how many
// episodes fit into the budget.
//
// Host cost is measured as process CPU time (cpuMs below).  The end-to-end
// launch and set-up figures are scaled by a fixed reference work timed in
// the same process between launches (referenceWork below), because the
// speed of a shared host drifts by tens of percent; wall times are kept
// for the per-layer split and reported there.
//
// Untraced sessions give the end-to-end numbers.  A traced session first
// runs untraced episodes for half the budget, then traced ones (an
// rt::RuntimeConfig::tracer plus the benchmark's own spans and an
// enumeration replay) for the other half, and derives the per-layer split.
//
// The driver prints one JSON object on stdout; run.py merges several
// sessions (cold set-up samples) into the benchmark's result line.
//
// Usage: perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                         [--setup-only] [--spans PATH]

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "analysis/analyze.h"
#include "apps/drivers.h"
#include "apps/kernels.h"
#include "apps/reference.h"
#include "apps/workloads.h"
#include "codegen/enumerator.h"
#include "rt/runtime.h"
#include "support/json.h"
#include "support/rng.h"
#include "support/trace.h"

namespace {

using namespace polypart;
using Clock = std::chrono::steady_clock;

double msBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double secondsSince(Clock::time_point a) {
  return std::chrono::duration<double>(Clock::now() - a).count();
}

/// CPU time consumed by this process so far, in milliseconds.  The runtime
/// runs on the calling thread here (resolutionThreads = 0, pipelineDepth =
/// 0), so CPU time is the work a call does.  Unlike wall time it leaves out
/// the time the process waits for a core (preemption, hypervisor steal);
/// slower execution on a busy host still shows in it, and the reference
/// work below corrects for that.
double cpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

/// Linear-interpolated quantile of samples, p in [0, 100].
double quantile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double pos = p / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] +
         (samples[hi] - samples[lo]) * (pos - static_cast<double>(lo));
}

// -- reference work -------------------------------------------------------------

/// A fixed amount of host work that calls no library code, timed in CPU ms:
/// a tree-walking evaluation of a stencil expression over a grid, a
/// switch-dispatch loop over a fixed bytecode, ordered-map churn, a sort,
/// and a dependent walk plus a streaming pass over a buffer larger than a
/// core's cache, the kinds of work a launch does (IR interpretation over
/// device buffers, tracker maps, range lists).  Its time tracks how fast
/// the host runs this process at the moment, cache and memory included;
/// the checksum keeps the compiler from dropping the work.
struct Reference {
  double ms = 0;
  u64 checksum = 0;
};

/// Expression tree of the reference's stencil, evaluated the way the IR
/// interpreter evaluates kernels: recursively, with locals looked up by name.
struct RefNode {
  enum class Kind { Const, Load, Local, Add, Sub, Mul } kind = Kind::Const;
  double value = 0;       // Const
  int dx = 0, dy = 0;     // Load: offset from the current cell
  std::string name;       // Local
  std::unique_ptr<RefNode> a, b;
};

struct RefCtx {
  const std::vector<double>& grid;
  int n = 0, x = 0, y = 0;
  std::vector<std::pair<std::string, double>> locals;
};

double refEval(const RefNode& e, const RefCtx& c) {
  switch (e.kind) {
    case RefNode::Kind::Const: return e.value;
    case RefNode::Kind::Load: {
      const int x = std::clamp(c.x + e.dx, 0, c.n - 1);
      const int y = std::clamp(c.y + e.dy, 0, c.n - 1);
      return c.grid[static_cast<std::size_t>(y * c.n + x)];
    }
    case RefNode::Kind::Local:
      for (const auto& [name, v] : c.locals)
        if (name == e.name) return v;
      return 0;
    case RefNode::Kind::Add: return refEval(*e.a, c) + refEval(*e.b, c);
    case RefNode::Kind::Sub: return refEval(*e.a, c) - refEval(*e.b, c);
    case RefNode::Kind::Mul: return refEval(*e.a, c) * refEval(*e.b, c);
  }
  return 0;
}

std::unique_ptr<RefNode> refLeaf(RefNode::Kind k, double v = 0, int dx = 0,
                                 int dy = 0, std::string name = {}) {
  auto e = std::make_unique<RefNode>();
  e->kind = k;
  e->value = v;
  e->dx = dx;
  e->dy = dy;
  e->name = std::move(name);
  return e;
}

std::unique_ptr<RefNode> refOp(RefNode::Kind k, std::unique_ptr<RefNode> a,
                               std::unique_ptr<RefNode> b) {
  auto e = std::make_unique<RefNode>();
  e->kind = k;
  e->a = std::move(a);
  e->b = std::move(b);
  return e;
}

Reference referenceWork() {
  static volatile u64 seed = 0x9E3779B97F4A7C15ull;
  u64 state = seed;
  auto next = [&state] {  // SplitMix64
    u64 z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  };
  // 16 MiB, filled once per process, outside the timed part.
  static const std::vector<u64> big = [] {
    std::vector<u64> b(u64{1} << 21);
    u64 x = 1;
    for (u64& e : b) e = (x = x * 6364136223846793005ull + 1442695040888963407ull);
    return b;
  }();

  const double t0 = cpuMs();
  Reference r;

  // t + k * (l + r + u + d - 4 t) + dt * p, as Hotspot's kernel body.
  using K = RefNode::Kind;
  auto load = [](int dx, int dy) { return refLeaf(K::Load, 0, dx, dy); };
  auto neighbours = refOp(K::Add, refOp(K::Add, load(-1, 0), load(1, 0)),
                          refOp(K::Add, load(0, -1), load(0, 1)));
  auto laplace = refOp(K::Sub, std::move(neighbours),
                       refOp(K::Mul, refLeaf(K::Const, 4), load(0, 0)));
  const auto body = refOp(
      K::Add,
      refOp(K::Add, load(0, 0),
            refOp(K::Mul, refLeaf(K::Local, 0, 0, 0, "k"), std::move(laplace))),
      refOp(K::Mul, refLeaf(K::Local, 0, 0, 0, "dt"),
            refLeaf(K::Local, 0, 0, 0, "p")));
  const int n = 64;
  std::vector<double> grid(static_cast<std::size_t>(n * n));
  for (double& g : grid) g = static_cast<double>(next() % 1024);
  RefCtx ctx{grid, n, 0, 0, {{"k", 0.175}, {"dt", 0.05}, {"p", 0.5}}};
  double sum = 0;
  for (ctx.y = 0; ctx.y < n; ++ctx.y)
    for (ctx.x = 0; ctx.x < n; ++ctx.x) sum += refEval(*body, ctx);
  r.checksum = static_cast<u64>(sum);

  std::vector<unsigned char> code(4096);
  for (unsigned char& op : code) op = static_cast<unsigned char>(next() % 6);
  u64 reg[4] = {next(), next(), next(), next()};
  for (int rep = 0; rep < 10; ++rep) {
    for (const unsigned char op : code) {
      switch (op) {
        case 0: reg[0] += reg[1]; break;
        case 1: reg[1] ^= reg[2] >> 3; break;
        case 2: reg[2] = reg[2] * 31 + reg[3]; break;
        case 3: reg[3] -= reg[0] & 0xff; break;
        case 4: if (reg[0] & 1) reg[1] += 7; else reg[2] ^= reg[1]; break;
        default: std::swap(reg[0], reg[3]); break;
      }
    }
  }
  r.checksum ^= reg[0] ^ reg[1] ^ reg[2] ^ reg[3];

  std::map<u64, u64> m;
  for (int i = 0; i < 4000; ++i) {
    const auto [it, inserted] = m.emplace(next() & 0x3fff, static_cast<u64>(i));
    if (!inserted) m.erase(it);
  }
  r.checksum ^= m.size();

  std::vector<u64> v(1 << 12);
  for (u64& e : v) e = next();
  std::sort(v.begin(), v.end());
  r.checksum ^= v[v.size() / 2];

  const u64 mask = big.size() - 1;
  u64 at = next() & mask;
  for (int i = 0; i < 2000; ++i) at = (big[at] ^ static_cast<u64>(i)) & mask;
  const std::size_t window = std::size_t{1} << 17;  // 1 MiB
  const std::size_t from = (next() & mask) & ~(window - 1);
  u64 streamed = 0;
  for (std::size_t i = from; i < from + window; ++i) streamed += big[i];
  r.checksum ^= at ^ streamed;

  r.ms = cpuMs() - t0;
  return r;
}

/// Scaled times read as on a host on which referenceWork() takes this long.
constexpr double kReferenceMs = 2.5;

/// Interleaves referenceWork() with the launches, at most once per kEveryMs
/// of CPU time, and cuts the run into chunks of kChunkMs of CPU time.  A
/// chunk's ratio is its median launch over its median reference: the launch
/// cost in reference units at the host speed of that quarter second.  A slow
/// spell slows both, but not always by the same factor; the low percentiles
/// of the ratios come from chunks where the host slowed neither.
///
/// Each chunk runs on the next of the process's allowed CPUs in turn.  How
/// fast a virtual CPU runs depends on what shares its physical core, and a
/// process left on a slow one stays slow for the whole run; rotating gives
/// every run chunks on every CPU.
class ReferenceClock {
 public:
  static constexpr double kEveryMs = 20;
  static constexpr double kChunkMs = 250;

  ReferenceClock() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
      for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &set)) cpus_.push_back(c);
  }

  /// After a timed launch that took `launchMs` of CPU time.
  void afterLaunch(double launchMs) {
    if (chunkStartMs_ < 0) chunkStartMs_ = cpuMs() - launchMs;
    chunkLaunches_.push_back(launchMs);
    if (cpuMs() - lastMs_ >= kEveryMs) take();
    if (cpuMs() - chunkStartMs_ >= kChunkMs) closeChunk();
  }

  void take() {
    const Reference r = referenceWork();
    samples_.push_back(r.ms);
    chunkSamples_.push_back(r.ms);
    checksum_ += r.checksum;
    lastMs_ = cpuMs();
  }

  /// Ends the timed phase: closes the last, partial chunk and lets the
  /// process run on all its CPUs again.
  void finish() {
    if (!chunkLaunches_.empty()) closeChunk();
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int c : cpus_) CPU_SET(c, &set);
    if (!cpus_.empty()) sched_setaffinity(0, sizeof set, &set);
  }

  /// Ratios of the chunks closed so far.
  const std::vector<double>& ratios() const { return ratios_; }
  const std::vector<double>& samples() const { return samples_; }
  u64 checksum() const { return checksum_; }

 private:
  void closeChunk() {
    if (!chunkSamples_.empty())
      ratios_.push_back(quantile(chunkLaunches_, 50) /
                        quantile(chunkSamples_, 50));
    chunkLaunches_.clear();
    chunkSamples_.clear();
    if (cpus_.size() > 1) {
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(cpus_[++chunks_ % cpus_.size()], &set);
      sched_setaffinity(0, sizeof set, &set);
    }
    chunkStartMs_ = cpuMs();
  }

  std::vector<double> samples_, ratios_;
  std::vector<double> chunkLaunches_, chunkSamples_;
  std::vector<int> cpus_;
  std::size_t chunks_ = 0;
  u64 checksum_ = 0;
  double lastMs_ = -kEveryMs;
  double chunkStartMs_ = -1;
};

// -- command line ---------------------------------------------------------------

struct Options {
  std::string workload;
  u64 seed = 0;
  double seconds = 0;
  bool trace = false;
  bool setupOnly = false;
  std::string spansPath;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload NAME "
               "--seed N --seconds S --trace 0|1 [--setup-only] [--spans PATH]\n",
               why.c_str());
  std::exit(2);
}

Options parseOptions(int argc, char** argv) {
  Options o;
  bool haveSeed = false, haveSeconds = false, haveTrace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + a);
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        o.workload = value();
      } else if (a == "--seed") {
        o.seed = std::stoull(value());
        haveSeed = true;
      } else if (a == "--seconds") {
        o.seconds = std::stod(value());
        haveSeconds = true;
      } else if (a == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        o.trace = v == "1";
        haveTrace = true;
      } else if (a == "--setup-only") {
        o.setupOnly = true;
      } else if (a == "--spans") {
        o.spansPath = value();
      } else {
        usage("unknown argument " + a);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + a);
    }
  }
  if (o.workload.empty() || !haveSeed || !haveSeconds || !haveTrace)
    usage("--workload, --seed, --seconds and --trace are required");
  if (!(o.seconds > 0) || o.seconds > 3600) usage("--seconds out of range");
  return o;
}

// -- the benchmark's own spans ------------------------------------------------

/// Spans around the benchmark's calls into the library: name, start, end,
/// parent and launch id.  Kept in memory (traced sessions only) and written
/// at exit.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  int open(std::string name, i64 launch = -1) {
    if (!enabled_) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({std::move(name), msBetween(epoch_, Clock::now()), 0,
                      parent, launch});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].endMs = msBetween(epoch_, Clock::now());
    stack_.pop_back();
  }

  json::Value toJson() const {
    json::Value out = json::Value::array();
    for (const Span& s : spans_) {
      json::Value v = json::Value::object();
      v["name"] = s.name;
      v["start_ms"] = s.startMs;
      v["end_ms"] = s.endMs;
      v["parent"] = s.parent;
      v["launch"] = s.launch;
      out.push(std::move(v));
    }
    return out;
  }

 private:
  struct Span {
    std::string name;
    double startMs = 0;
    double endMs = 0;
    int parent = -1;
    i64 launch = -1;
  };
  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class SpanScope {
 public:
  SpanScope(SpanLog& log, std::string name, i64 launch = -1)
      : log_(log), id_(log.open(std::move(name), launch)) {}
  ~SpanScope() { log_.close(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanLog& log_;
  int id_;
};

// -- workloads -----------------------------------------------------------------

constexpr double kHotspotK = 0.175;
constexpr double kHotspotDt = 0.05;

struct BufferSpec {
  i64 bytes = 0;
  const void* host = nullptr;  // H2D source; null in TimingOnly mode
  bool upload = false;         // H2D'd at the start of every episode
};

/// One episode's host program: allocate and upload the buffers, launch
/// `kernel` `launches` times, download buffer `output`, synchronize, free.
struct Program {
  std::string kernel;
  ir::Dim3 grid;
  ir::Dim3 block;
  int launches = 0;
  std::vector<BufferSpec> buffers;
  std::function<std::vector<rt::LaunchArg>(
      int iteration, const std::vector<rt::VirtualBuffer*>& buffers)>
      argsFor;
  std::size_t output = 0;
  /// Reference contents of the output buffer (CPU reference code); empty
  /// when nothing executes (TimingOnly mode).
  std::vector<double> expected;
};

/// A named workload: its inputs (drawn from the seed), its set-up and its
/// host program.  Programs point into the input vectors, so a Workload
/// stays where it was built.
struct Workload {
  std::function<ir::Module()> buildModule;
  analysis::AnalysisOptions analysis;
  rt::RuntimeConfig config;
  Program program;
  /// TimingOnly workloads: a Functional twin of the same launch sequence at
  /// a small size and the same GPU count, checked once per session.
  std::optional<Program> twin;
  rt::RuntimeConfig twinConfig;
  json::Value params = json::Value::object();
  u64 inputDigest = 0xcbf29ce484222325ull;  // FNV-1a over every input

  std::vector<double> temp, power, twinTemp, twinPower, vals, x;
  std::vector<i64> rowPtr, colIdx;

  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  template <typename T>
  void digest(const std::vector<T>& v) {
    const auto* p = reinterpret_cast<const unsigned char*>(v.data());
    for (std::size_t i = 0; i < v.size() * sizeof(T); ++i) {
      inputDigest ^= p[i];
      inputDigest *= 0x100000001b3ull;
    }
  }
};

/// Explicit runtime configuration: every knob whose default comes from a
/// POLYPART_* environment variable is pinned, so the environment cannot
/// change what is measured.
rt::RuntimeConfig baseConfig(int gpus, sim::ExecutionMode mode) {
  rt::RuntimeConfig cfg;
  cfg.numGpus = gpus;
  cfg.mode = mode;
  cfg.machine = sim::MachineSpec::k80Node(gpus);
  cfg.enumeratorTier = codegen::EnumTier::Interpret;
  cfg.dataflowPlanning = false;
  cfg.allowRepartitioning = false;
  cfg.inspectorExecutor = false;
  cfg.resolutionThreads = 0;
  cfg.pipelineDepth = 0;
  return cfg;
}

ir::Module singleKernelModule(ir::KernelPtr (*build)()) {
  ir::Module m;
  m.addKernel(build());
  return m;
}

std::vector<double> draw(Rng& rng, i64 count, double lo, double hi) {
  std::vector<double> v(static_cast<std::size_t>(count));
  for (double& d : v) d = lo + (hi - lo) * rng.uniform();
  return v;
}

/// Hotspot's ping-pong host loop (apps::runHotspot), with the reference
/// result when `temp`/`power` are given.
Program hotspotProgram(i64 n, int launches, const std::vector<double>* temp,
                       const std::vector<double>* power) {
  Program p;
  p.kernel = "hotspot";
  const i64 blocks = (n + apps::kBlock2D - 1) / apps::kBlock2D;
  p.grid = {blocks, blocks, 1};
  p.block = {apps::kBlock2D, apps::kBlock2D, 1};
  p.launches = launches;
  const i64 bytes = n * n * 8;
  p.buffers = {{bytes, temp ? temp->data() : nullptr, true},
               {bytes, nullptr, false},
               {bytes, power ? power->data() : nullptr, true}};
  p.argsFor = [n](int it, const std::vector<rt::VirtualBuffer*>& b) {
    rt::VirtualBuffer* src = b[static_cast<std::size_t>(it % 2)];
    rt::VirtualBuffer* dst = b[static_cast<std::size_t>(1 - it % 2)];
    return std::vector<rt::LaunchArg>{
        rt::LaunchArg::ofInt(n),        rt::LaunchArg::ofFloat(kHotspotK),
        rt::LaunchArg::ofFloat(kHotspotDt), rt::LaunchArg::ofBuffer(src),
        rt::LaunchArg::ofBuffer(b[2]),  rt::LaunchArg::ofBuffer(dst)};
  };
  p.output = static_cast<std::size_t>(launches % 2);
  if (temp != nullptr) {
    std::vector<double> cur = *temp, next(cur.size());
    for (int it = 0; it < launches; ++it) {
      apps::refHotspotStep(n, kHotspotK, kHotspotDt, cur, *power, next);
      std::swap(cur, next);
    }
    p.expected = std::move(cur);
  }
  return p;
}

std::unique_ptr<Workload> makeWorkload(const std::string& name, u64 seed) {
  auto w = std::make_unique<Workload>();
  Rng rng(seed);
  if (name == "hotspot-functional") {
    // The IR interpreter's workload: every launch interprets the whole grid.
    const i64 n = 256;
    const int gpus = 8, launches = 8;
    w->temp = draw(rng, n * n, 300.0, 340.0);
    w->power = draw(rng, n * n, 0.0, 1.0);
    w->buildModule = [] { return singleKernelModule(apps::buildHotspot); };
    w->config = baseConfig(gpus, sim::ExecutionMode::Functional);
    w->program = hotspotProgram(n, launches, &w->temp, &w->power);
    w->params["n"] = n;
    w->params["gpus"] = gpus;
    w->params["mode"] = "functional";
    w->params["enumeration_cache"] = true;
  } else if (name == "hotspot-paper") {
    // Table 1 Large in the paper's runtime mode: no interpretation, and the
    // launch-plan cache off (benchutil::runPartitioned), so every launch
    // enumerates and updates the trackers.
    const i64 n = apps::configFor(apps::Benchmark::Hotspot,
                                  apps::ProblemSize::Large).problemSize;
    const int gpus = 16, launches = 1000;
    const i64 twinN = 256;
    const int twinLaunches = 4;
    w->twinTemp = draw(rng, twinN * twinN, 300.0, 340.0);
    w->twinPower = draw(rng, twinN * twinN, 0.0, 1.0);
    w->buildModule = [] { return singleKernelModule(apps::buildHotspot); };
    w->config = baseConfig(gpus, sim::ExecutionMode::TimingOnly);
    w->config.enableEnumerationCache = false;
    w->program = hotspotProgram(n, launches, nullptr, nullptr);
    w->twinConfig = baseConfig(gpus, sim::ExecutionMode::Functional);
    w->twinConfig.enableEnumerationCache = false;
    w->twin = hotspotProgram(twinN, twinLaunches, &w->twinTemp, &w->twinPower);
    w->params["n"] = n;
    w->params["gpus"] = gpus;
    w->params["mode"] = "timing-only";
    w->params["enumeration_cache"] = false;
    w->params["twin_n"] = twinN;
    w->params["twin_launches"] = twinLaunches;
  } else if (name == "spmv-inspector") {
    // Banded CSR y = A*x on persistent buffers: x never changes, so the
    // inspector walks once per episode and then hits its cache.
    const i64 n = 16384, band = 16;
    const int gpus = 8, launches = 8;
    w->rowPtr.push_back(0);
    for (i64 r = 0; r < n; ++r) {
      for (i64 c = std::max<i64>(0, r - band); c < std::min(n, r + band + 1);
           ++c) {
        w->colIdx.push_back(c);
        w->vals.push_back(rng.uniform() - 0.5);
      }
      w->rowPtr.push_back(static_cast<i64>(w->colIdx.size()));
    }
    w->x = draw(rng, n, -1.0, 1.0);
    const i64 nnz = static_cast<i64>(w->colIdx.size());
    w->buildModule = [] { return singleKernelModule(apps::buildCsrSpmv); };
    w->analysis.allowMayAccess = true;
    w->config = baseConfig(gpus, sim::ExecutionMode::Functional);
    w->config.inspectorExecutor = true;
    Program& p = w->program;
    p.kernel = "spmv";
    p.grid = {(n + apps::kBlock1D - 1) / apps::kBlock1D, 1, 1};
    p.block = {apps::kBlock1D, 1, 1};
    p.launches = launches;
    p.buffers = {{(n + 1) * 8, w->rowPtr.data(), true},
                 {nnz * 8, w->colIdx.data(), true},
                 {nnz * 8, w->vals.data(), true},
                 {n * 8, w->x.data(), true},
                 {n * 8, nullptr, false}};
    p.argsFor = [n, nnz](int, const std::vector<rt::VirtualBuffer*>& b) {
      return std::vector<rt::LaunchArg>{
          rt::LaunchArg::ofInt(n),      rt::LaunchArg::ofInt(n),
          rt::LaunchArg::ofInt(nnz),    rt::LaunchArg::ofBuffer(b[0]),
          rt::LaunchArg::ofBuffer(b[1]), rt::LaunchArg::ofBuffer(b[2]),
          rt::LaunchArg::ofBuffer(b[3]), rt::LaunchArg::ofBuffer(b[4])};
    };
    p.output = 4;
    p.expected.assign(static_cast<std::size_t>(n), 0.0);
    apps::refSpmv(w->rowPtr, w->colIdx, w->vals, w->x, p.expected);
    w->params["rows"] = n;
    w->params["band"] = band;
    w->params["nnz"] = nnz;
    w->params["gpus"] = gpus;
    w->params["mode"] = "functional";
    w->params["inspector_executor"] = true;
  } else {
    usage("unknown workload '" + name + "'");
  }
  w->params["launches_per_episode"] = w->program.launches;
  w->params["resolution_threads"] = w->config.resolutionThreads;
  w->params["pipeline_depth"] = w->config.pipelineDepth;
  for (const auto* v : {&w->temp, &w->power, &w->twinTemp, &w->twinPower,
                        &w->vals, &w->x})
    w->digest(*v);
  w->digest(w->rowPtr);
  w->digest(w->colIdx);
  return w;
}

// -- set-up ----------------------------------------------------------------------

struct Setup {
  ir::Module module;
  analysis::ApplicationModel model;
  double buildModuleS = 0;
  double analyzeS = 0;
  double constructS = 0;
  double setupS() const { return buildModuleS + analyzeS + constructS; }
};

/// The set-up a user waits for: build the module, analyze it, construct the
/// runtime (partitioned clones and enumerators), timed in CPU seconds.  The
/// runtime is dropped after timing; episodes construct their own.
Setup runSetup(const Workload& w) {
  Setup s;
  const double t0 = cpuMs();
  s.module = w.buildModule();
  const double t1 = cpuMs();
  s.model = analysis::analyzeModule(s.module, w.analysis);
  const double t2 = cpuMs();
  auto runtime = std::make_unique<rt::Runtime>(w.config, s.model, s.module);
  const double t3 = cpuMs();
  runtime.reset();
  s.buildModuleS = (t1 - t0) / 1e3;
  s.analyzeS = (t2 - t1) / 1e3;
  s.constructS = (t3 - t2) / 1e3;
  return s;
}

// -- per-layer accounting ----------------------------------------------------------

/// Wall time per layer over the traced episodes, from the runtime's phase
/// spans (rt::RuntimeConfig::tracer), the benchmark's own timers and the
/// enumeration replay.
struct Layers {
  i64 launches = 0;
  i64 threads = 0;  // interpreted threads (Functional mode)
  double launchMs = 0;
  double syncReadsMs = 0;
  double updateTrackersMs = 0;
  double inspectMs = 0;
  double execMs = 0;
  double otherPhaseMs = 0;
  double unattributedMs = 0;
  double enumerateMs = 0;
  i64 ranges = 0;
  i64 rows = 0;
  double memcpyMs = 0;
  double resolutionWallMs = 0;
  int episodes = 0;
};

bool startsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

/// Adds one traced episode's phase spans to `out`.  A launch's layer spans
/// are the outermost wall-domain spans recorded under its launch id, other
/// than the launch span itself; whatever part of the benchmark-measured
/// launch wall they do not cover is unattributed.
void attributeTrace(const trace::Tracer& tracer,
                    const std::vector<double>& launchMs, Layers& out) {
  struct S {
    double ts, dur;
    const std::string* name;
  };
  std::vector<std::vector<S>> byLaunch(launchMs.size());
  const json::Value doc = tracer.toJson();
  for (const json::Value& e : doc.at("traceEvents").asArray()) {
    if (e.at("ph").asString() != "X" || e.at("pid").asInt() != trace::kWallPid)
      continue;
    const json::Value* args = e.asObject().find("args");
    const json::Value* launch = args ? args->asObject().find("launch") : nullptr;
    if (launch == nullptr) continue;
    const i64 id = launch->asInt();
    const std::string& name = e.at("name").asString();
    if (id < 0 || id >= static_cast<i64>(byLaunch.size()) ||
        startsWith(name, "launch:"))
      continue;
    byLaunch[static_cast<std::size_t>(id)].push_back(
        {e.at("ts").asDouble(), e.at("dur").asDouble(), &name});
  }
  for (std::size_t i = 0; i < byLaunch.size(); ++i) {
    std::vector<S>& spans = byLaunch[i];
    std::sort(spans.begin(), spans.end(), [](const S& a, const S& b) {
      return a.ts != b.ts ? a.ts < b.ts : a.dur > b.dur;
    });
    double coveredUs = 0, end = -1;
    for (const S& s : spans) {
      if (s.ts < end) continue;  // nested inside an outer layer span
      end = s.ts + s.dur;
      coveredUs += s.dur;
      const double ms = s.dur / 1e3;
      const std::string& n = *s.name;
      if (n == "sync-reads" || n == "sync-may-reads")
        out.syncReadsMs += ms;
      else if (n == "update-trackers")
        out.updateTrackersMs += ms;
      else if (startsWith(n, "inspect:"))
        out.inspectMs += ms;
      else if (startsWith(n, "launch-kernels:"))
        out.execMs += ms;
      else
        out.otherPhaseMs += ms;
    }
    out.unattributedMs += launchMs[i] - coveredUs / 1e3;
  }
}

/// Replays each launch's Enumerator::enumerate calls over the partitionFor
/// tuples, outside the launch, to time the codegen layer on its own.  The
/// enumerators are built from the same model with the runtime's settings;
/// reads the inspector replaces are skipped, as the runtime skips them.
class EnumReplay {
 public:
  EnumReplay(const analysis::KernelModel& km, const rt::RuntimeConfig& cfg)
      : km_(km), enumerators_(codegen::buildEnumerators(km)) {
    for (codegen::Enumerator& e : enumerators_) {
      e.coalesce = cfg.coalesceEnumerators;
      e.tier = cfg.enumeratorTier;
      const analysis::ArrayModel* a = km.arrayFor(e.argIndex());
      skip_.push_back(cfg.inspectorExecutor && !e.isWrite() && a != nullptr &&
                      a->readMayAccess && !a->writeMayAccess);
    }
  }

  void replay(const rt::Runtime& runtime, const ir::LaunchConfig& lc,
              std::span<const rt::LaunchArg> args, Layers& out) const {
    std::vector<i64> scalars;
    for (std::size_t i = 0; i < args.size(); ++i)
      if (!km_.params[i].isArray && km_.params[i].type == ir::Type::I64)
        scalars.push_back(args[i].scalar.i);
    const codegen::RangeFn sink = [](i64, i64) {};
    const auto t0 = Clock::now();
    for (int gpu = 0; gpu < runtime.config().numGpus; ++gpu) {
      const ir::GridPartition gp = runtime.partitionFor(km_, lc.grid, gpu);
      if (gp.blockCount() == 0) continue;
      const auto tuple = codegen::PartitionTuple::fromBlocks(gp, lc.block);
      for (std::size_t ei = 0; ei < enumerators_.size(); ++ei) {
        if (skip_[ei]) continue;
        codegen::EnumInfo info;
        enumerators_[ei].enumerate(tuple, lc, scalars, sink, &info);
        out.ranges += info.ranges;
        out.rows += info.logicalRows;
      }
    }
    out.enumerateMs += msBetween(t0, Clock::now());
  }

 private:
  const analysis::KernelModel& km_;
  std::vector<codegen::Enumerator> enumerators_;
  std::vector<bool> skip_;
};

// -- episodes ------------------------------------------------------------------------

struct Episode {
  std::vector<double> launchMs;     // wall
  std::vector<double> launchCpuMs;  // CPU
  double wallS = 0;
  double cpuS = 0;
  double memcpyMs = 0;
  int launchesAttempted = 0;
  int checks = 0;
  std::vector<std::string> failures;
  // Modeled outcome; identical for every episode of a session.
  double simS = 0;
  rt::RuntimeStats stats;
  sim::MachineStats machine;
};

/// RuntimeStats without the wall-clock and cache-telemetry meta-counters,
/// which the runtime documents as nondeterministic.
rt::RuntimeStats deterministicPart(rt::RuntimeStats s) {
  s.resolutionTasks = 0;
  s.resolutionWallSeconds = 0;
  s.parallelWallSeconds = 0;
  s.fmMemoHits = s.fmMemoMisses = s.fmMemoEvictions = 0;
  s.specProgramHits = s.specProgramMisses = s.specProgramEvictions = 0;
  return s;
}

bool sameOutcome(const Episode& a, const Episode& b) {
  return a.simS == b.simS && a.machine == b.machine &&
         deterministicPart(a.stats) == deterministicPart(b.stats);
}

/// Runs one episode of `p` on a fresh runtime.  With a tracer, the runtime
/// records its phase spans and `replay` re-enumerates every launch.
Episode runEpisode(const Setup& s, rt::RuntimeConfig cfg, const Program& p,
                   SpanLog& spans, ReferenceClock* reference,
                   trace::Tracer* tracer, const EnumReplay* replay,
                   Layers* layers) {
  Episode ep;
  SpanScope episodeSpan(spans, "episode");
  cfg.tracer = tracer;
  std::optional<rt::Runtime> runtime;
  {
    SpanScope span(spans, "construct");
    runtime.emplace(cfg, s.model, s.module);
  }
  rt::Runtime& rt = *runtime;
  const bool functional = cfg.mode == sim::ExecutionMode::Functional;
  std::vector<double> out(functional ? p.expected.size() : 0);

  // Invariant: RuntimeStats move only inside launch calls, so the
  // per-launch deltas summed over the episode equal the final stats().
  rt::RuntimeStats last = rt.stats();
  auto checkStatsUnchanged = [&](const char* where) {
    ++ep.checks;
    if (!(rt.stats() == last))
      ep.failures.push_back(std::string("RuntimeStats changed ") + where);
  };

  const auto t0 = Clock::now();
  const double cpu0 = cpuMs();
  std::vector<rt::VirtualBuffer*> bufs;
  {
    SpanScope span(spans, "upload");
    for (const BufferSpec& b : p.buffers) {
      bufs.push_back(rt.malloc(b.bytes));
      if (!b.upload) continue;
      const auto c0 = Clock::now();
      rt.memcpy(bufs.back(), b.host, b.bytes, rt::MemcpyKind::HostToDevice);
      ep.memcpyMs += msBetween(c0, Clock::now());
    }
  }
  for (int it = 0; it < p.launches; ++it) {
    const std::vector<rt::LaunchArg> args = p.argsFor(it, bufs);
    checkStatsUnchanged("outside a launch call");
    ++ep.launchesAttempted;
    const auto l0 = Clock::now();
    const double lc0 = cpuMs();
    try {
      SpanScope span(spans, "launch", it);
      rt.launch(p.kernel, p.grid, p.block, args);
    } catch (const std::exception& e) {
      ep.failures.push_back(std::string("launch threw: ") + e.what());
      break;
    }
    ep.launchCpuMs.push_back(cpuMs() - lc0);
    ep.launchMs.push_back(msBetween(l0, Clock::now()));
    last = rt.stats();
    if (reference != nullptr) reference->afterLaunch(ep.launchCpuMs.back());
    if (replay != nullptr) {
      SpanScope span(spans, "replay-enumerate", it);
      replay->replay(rt, {p.grid, p.block}, args, *layers);
    }
  }
  {
    SpanScope span(spans, "download");
    const auto c0 = Clock::now();
    rt.memcpy(functional ? out.data() : nullptr, bufs[p.output],
              p.buffers[p.output].bytes, rt::MemcpyKind::DeviceToHost);
    ep.memcpyMs += msBetween(c0, Clock::now());
  }
  {
    SpanScope span(spans, "synchronize");
    rt.deviceSynchronize();
  }
  {
    SpanScope span(spans, "free");
    for (rt::VirtualBuffer* b : bufs) rt.free(b);
  }
  ep.cpuS = (cpuMs() - cpu0) / 1e3;
  ep.wallS = secondsSince(t0);
  checkStatsUnchanged("between the last launch and the end of the episode");

  ep.simS = rt.elapsedSeconds();
  ep.stats = rt.stats();
  ep.machine = rt.machineStats();
  {
    SpanScope span(spans, "check");
    ++ep.checks;
    if (ep.stats.launches != static_cast<i64>(ep.launchMs.size()))
      ep.failures.push_back("RuntimeStats::launches disagrees with the launches made");
    if (functional) {
      ++ep.checks;
      if (out.size() != p.expected.size() ||
          std::memcmp(out.data(), p.expected.data(), out.size() * sizeof(double)) != 0)
        ep.failures.push_back("output differs from the CPU reference");
    }
  }
  if (layers != nullptr) {
    layers->launches += static_cast<i64>(ep.launchMs.size());
    if (functional)
      layers->threads += static_cast<i64>(ep.launchMs.size()) * p.grid.count() *
                         p.block.count();
    for (double ms : ep.launchMs) layers->launchMs += ms;
    layers->memcpyMs += ep.memcpyMs;
    layers->resolutionWallMs += ep.stats.resolutionWallSeconds * 1e3;
    ++layers->episodes;
    if (tracer != nullptr) attributeTrace(*tracer, ep.launchMs, *layers);
  }
  return ep;
}

// -- statistics ----------------------------------------------------------------------

/// Tail latency: the percentile that leaves 10 samples beyond it in a
/// window of consecutive launches, taken per window and reported as the
/// median over the run's windows.  Windows hold 200 launches (p95), or 100
/// (p90) or 20 (p50) when the run has fewer launches.  On a shared host a
/// run-wide p99 follows how often other processes preempt this one more
/// than it follows the program; the windowed p95 keeps the tail a property
/// of the program and lets one burst of interference move one window only.
struct Tail {
  double percentile = 50;
  double ms = 0;
  std::size_t windows = 0;
};

Tail tailOf(const std::vector<double>& inLaunchOrder) {
  const std::size_t n = inLaunchOrder.size();
  Tail t;
  std::size_t window = std::max<std::size_t>(n, 1);
  if (n >= 200) {
    t.percentile = 95;
    window = 200;
  } else if (n >= 100) {
    t.percentile = 90;
    window = 100;
  } else if (n >= 20) {
    window = 20;
  }
  t.windows = std::max<std::size_t>(1, n / window);
  std::vector<double> perWindow;
  for (std::size_t k = 0; k < t.windows; ++k) {
    // The last window also takes the samples left over by the division.
    const auto first =
        inLaunchOrder.begin() + static_cast<std::ptrdiff_t>(k * window);
    const auto last = k + 1 == t.windows
                          ? inLaunchOrder.end()
                          : first + static_cast<std::ptrdiff_t>(window);
    perWindow.push_back(quantile(std::vector<double>(first, last), t.percentile));
  }
  t.ms = quantile(perWindow, 50);
  return t;
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

json::Value metric(double value, const char* unit) {
  json::Value m = json::Value::object();
  m["value"] = value;
  m["unit"] = unit;
  return m;
}

json::Value buildInfo() {
  json::Value b = json::Value::object();
  b["build_type"] = PERFBENCH_BUILD_TYPE;
  b["compiler"] = PERFBENCH_COMPILER;
  b["hardware_threads"] = static_cast<i64>(std::thread::hardware_concurrency());
  return b;
}

// -- session ---------------------------------------------------------------------------

int runSession(const Options& o) {
  std::unique_ptr<Workload> w = makeWorkload(o.workload, o.seed);
  // The host's speed just before the set-up, to scale it by.
  ReferenceClock setupRef;
  for (int i = 0; i < 40; ++i) setupRef.take();
  const Setup s = runSetup(*w);
  const double setupScale = kReferenceMs / quantile(setupRef.samples(), 50);

  json::Value result = json::Value::object();
  json::Value setup = json::Value::object();
  setup["build_module_s"] = s.buildModuleS;
  setup["analyze_s"] = s.analyzeS;
  setup["construct_s"] = s.constructS;
  setup["setup_s"] = s.setupS();
  setup["scale"] = setupScale;
  setup["reference_checksum"] = static_cast<i64>(setupRef.checksum() & 0xffff);
  result["setup"] = setup;
  if (o.setupOnly) {
    std::printf("%s\n", result.dump().c_str());
    return 0;
  }

  SpanLog spans(o.trace);
  i64 attempted = 0;
  std::vector<std::string> failures;
  auto account = [&](const Episode& ep) {
    attempted += ep.launchesAttempted + ep.checks;
    failures.insert(failures.end(), ep.failures.begin(), ep.failures.end());
  };

  // Untimed correctness twin of a TimingOnly program.
  if (w->twin) {
    SpanScope span(spans, "functional-twin");
    account(runEpisode(s, w->twinConfig, *w->twin, spans, nullptr, nullptr,
                       nullptr, nullptr));
  }

  // Closed loop of identical episodes: untraced for the whole budget, or,
  // in a traced session, untraced for half and traced for the other half.
  std::optional<Episode> reference;
  auto compareOutcome = [&](const Episode& ep) {
    ++attempted;
    if (!reference) reference = ep;
    else if (!sameOutcome(*reference, ep))
      failures.push_back("modeled outcome differs between episodes");
  };
  std::vector<double> untracedMs, untracedWallMs, tracedMs;
  double untracedCpuS = 0, untracedWallS = 0;
  i64 untracedLaunches = 0;
  ReferenceClock refWork;
  const double untracedBudget = o.trace ? o.seconds / 2 : o.seconds;
  for (const auto start = Clock::now();
       untracedLaunches == 0 || secondsSince(start) < untracedBudget;) {
    Episode ep = runEpisode(s, w->config, w->program, spans, &refWork,
                            nullptr, nullptr, nullptr);
    account(ep);
    compareOutcome(ep);
    untracedMs.insert(untracedMs.end(), ep.launchCpuMs.begin(), ep.launchCpuMs.end());
    untracedWallMs.insert(untracedWallMs.end(), ep.launchMs.begin(), ep.launchMs.end());
    untracedCpuS += ep.cpuS;
    untracedWallS += ep.wallS;
    untracedLaunches += static_cast<i64>(ep.launchMs.size());
    if (ep.launchMs.empty()) break;  // a launch threw
  }
  refWork.finish();

  Layers layers;
  if (o.trace) {
    const analysis::KernelModel* km = s.model.find(w->program.kernel);
    const EnumReplay replay(*km, w->config);
    for (const auto start = Clock::now();
         layers.episodes == 0 || secondsSince(start) < o.seconds / 2;) {
      trace::Tracer tracer;
      Episode ep = runEpisode(s, w->config, w->program, spans, nullptr,
                              &tracer, &replay, &layers);
      account(ep);
      compareOutcome(ep);  // tracing must not change the modeled outcome
      tracedMs.insert(tracedMs.end(), ep.launchCpuMs.begin(), ep.launchCpuMs.end());
      if (ep.launchMs.empty()) break;
    }
  }

  const Episode& d = *reference;
  const double p50 = quantile(untracedMs, 50);
  const double refP50 = quantile(refWork.samples(), 50);
  const double wallP50 = quantile(untracedWallMs, 50);
  const Tail wallTail = tailOf(untracedWallMs);
  const double wallPerS =
      ratio(static_cast<double>(untracedLaunches), untracedWallS);

  json::Value deterministic = json::Value::object();
  deterministic["sim_s"] = d.simS;
  deterministic["p2p_bytes"] = d.machine.bytesPeerToPeer;
  deterministic["ranges"] = d.stats.rangesResolved;
  deterministic["logical_rows"] = d.stats.logicalRowsResolved;
  deterministic["peer_copies"] = d.stats.peerCopies;
  deterministic["tracker_segments"] = d.stats.trackerSegmentsVisited;
  deterministic["transfers"] = d.machine.transfers;
  result["deterministic"] = deterministic;

  // The host's speed changes by tens of percent within seconds (other
  // tenants of the machine); see ReferenceClock.
  json::Value e2e = json::Value::object();
  e2e["launch_ms_scaled"] =
      metric(quantile(refWork.ratios(), 10) * kReferenceMs, "ref_ms");
  e2e["sim_s"] = metric(d.simS, "modeled_s");
  e2e["p2p_mb"] = metric(d.machine.bytesPeerToPeer / 1e6, "MB");
  e2e["peak_rss_mb"] = metric(peakRssMb(), "MB");
  result["end_to_end"] = e2e;
  result["launch_samples"] = static_cast<i64>(untracedMs.size());
  result["chunks"] = static_cast<i64>(refWork.ratios().size());

  // Unscaled figures of the same untraced launches: CPU ms, and wall ms,
  // which also count the time the process waited for a core.
  json::Value raw = json::Value::object();
  raw["reference_ms_p10"] = quantile(refWork.samples(), 10);
  raw["reference_ms_p50"] = refP50;
  raw["reference_samples"] = static_cast<i64>(refWork.samples().size());
  raw["reference_checksum"] = static_cast<i64>(refWork.checksum() & 0xffff);
  raw["launch_cpu_ms_p10"] = quantile(untracedMs, 10);
  raw["chunk_ratio_p50"] = quantile(refWork.ratios(), 50);
  raw["launch_cpu_ms_p50"] = p50;
  raw["launch_cpu_ms_tail"] = tailOf(untracedMs).ms;
  raw["launches_per_cpu_s"] =
      ratio(static_cast<double>(untracedLaunches), untracedCpuS);
  raw["launch_wall_ms_p50"] = wallP50;
  raw["launch_wall_ms_tail"] = wallTail.ms;
  raw["launch_wall_ms_tail_percentile"] = wallTail.percentile;
  raw["launches_per_wall_s"] = wallPerS;
  result["raw"] = raw;

  if (o.trace) {
    const double n = static_cast<double>(layers.launches);
    const double eps = static_cast<double>(layers.episodes);
    const rt::RuntimeStats& st = d.stats;
    const sim::MachineStats& m = d.machine;
    json::Value l = json::Value::object();
    l["codegen.enumerate_ms"] = metric(ratio(layers.enumerateMs, n), "ms");
    l["codegen.ranges_per_launch"] =
        metric(ratio(static_cast<double>(layers.ranges), n), "count");
    l["codegen.rows_per_launch"] =
        metric(ratio(static_cast<double>(layers.rows), n), "count");
    l["rt.update_trackers_ms"] = metric(ratio(layers.updateTrackersMs, n), "ms");
    l["rt.tracker_segments_per_launch"] = metric(
        ratio(static_cast<double>(st.trackerSegmentsVisited),
              static_cast<double>(st.launches)), "count");
    l["rt.sync_reads_ms"] = metric(ratio(layers.syncReadsMs, n), "ms");
    l["rt.peer_copies_per_launch"] = metric(
        ratio(static_cast<double>(st.peerCopies), static_cast<double>(st.launches)),
        "count");
    l["rt.inspect_ms"] = metric(ratio(layers.inspectMs, n), "ms");
    const i64 inspLookups = st.inspectorCacheHits + st.inspectorCacheMisses;
    l["rt.inspector_cache_hit_ratio"] = metric(
        ratio(static_cast<double>(st.inspectorCacheHits),
              static_cast<double>(inspLookups)), "ratio");
    l["rt.inspector_cache_lookups"] =
        metric(static_cast<double>(inspLookups), "count");
    l["rt.inspected_elements"] =
        metric(static_cast<double>(st.inspectedElements), "count");
    const i64 enumLookups = st.enumCacheHits + st.enumCacheMisses;
    l["rt.enum_cache_hit_ratio"] = metric(
        ratio(static_cast<double>(st.enumCacheHits),
              static_cast<double>(enumLookups)), "ratio");
    l["rt.enum_cache_lookups"] = metric(static_cast<double>(enumLookups), "count");
    l["rt.resolution_wall_ms"] = metric(ratio(layers.resolutionWallMs, n), "ms");
    l["rt.memcpy_ms"] = metric(ratio(layers.memcpyMs, eps), "ms");
    l["ir.exec_ms"] = metric(ratio(layers.execMs, n), "ms");
    l["ir.threads_per_s"] = metric(
        ratio(static_cast<double>(layers.threads), layers.execMs / 1e3), "1/s");
    l["sim.transfers"] = metric(static_cast<double>(m.transfers), "count");
    l["sim.kernel_busy_s"] = metric(m.kernelBusySeconds, "modeled_s");
    l["sim.transfer_busy_s"] = metric(m.transferBusySeconds, "modeled_s");
    l["sim.h2d_mb"] = metric(m.bytesHostToDevice / 1e6, "MB");
    l["sim.d2h_mb"] = metric(m.bytesDeviceToHost / 1e6, "MB");
    l["rt.unattributed_ms"] = metric(ratio(layers.unattributedMs, n), "ms");
    l["wall.launch_ms_p50"] = metric(wallP50, "ms");
    l["wall.launch_ms_tail"] = metric(wallTail.ms, "ms");
    l["wall.launches_per_s"] = metric(wallPerS, "1/s");
    l["host.reference_ms"] = metric(refP50, "ms");
    l["trace.overhead_frac"] =
        metric(ratio(quantile(tracedMs, 50), p50) - 1.0, "ratio");
    result["per_layer"] = l;
    json::Value split = json::Value::object();
    split["launch_ms_mean"] = ratio(layers.launchMs, n);
    split["other_phase_ms"] = ratio(layers.otherPhaseMs, n);
    split["traced_launches"] = layers.launches;
    split["traced_episodes"] = layers.episodes;
    result["trace_detail"] = split;
  }

  result["attempted"] = attempted;
  result["failed"] = static_cast<i64>(failures.size());
  json::Value f = json::Value::array();
  for (const std::string& msg : failures) f.push(msg);
  result["failures"] = f;
  result["params"] = w->params;
  result["build"] = buildInfo();
  char digest[17];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(w->inputDigest));
  result["input_digest"] = digest;
  result["episodes"] = static_cast<i64>(untracedLaunches / w->program.launches);

  if (!o.spansPath.empty() && o.trace) {
    json::Value doc = json::Value::object();
    doc["workload"] = o.workload;
    doc["seed"] = static_cast<i64>(o.seed);
    doc["params"] = w->params;
    doc["build"] = buildInfo();
    doc["spans"] = spans.toJson();
    std::ofstream(o.spansPath) << doc.dump() << '\n';
  }
  std::printf("%s\n", result.dump().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parseOptions(argc, argv);
  try {
    return runSession(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
