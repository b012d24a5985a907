// Command-line driver for the TOUCH spatial-join library.
//
// Runs any algorithm of the library on generated or loaded datasets and
// prints a stats table, so the join can be exercised without writing code:
//
//   spatial_join_cli --algo=touch --dist=gaussian --na=100000 --epsilon=5
//   spatial_join_cli --algo=auto --a=axons.bin --b=dendrites.bin
//   spatial_join_cli --algo=pbsm-500,touch --a=axons.bin --b=dendrites.bin
//   spatial_join_cli --generate=clustered --count=50000 --out=data.bin
//
// Exit code 0 on success, 1 on bad usage or I/O failure.

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/factory.h"
#include "core/overlap_kernel.h"
#include "datagen/distributions.h"
#include "datagen/neuro.h"
#include "engine/engine.h"
#include "engine/sharded_engine.h"
#include "io/dataset_io.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/format.h"

namespace touch {
namespace {

struct CliOptions {
  std::vector<std::string> algorithms = {"touch"};
  std::string distribution = "uniform";
  /// Neuroscience workload: axons vs dendrites grown from this many neurons
  /// (0 = use the synthetic box distribution instead).
  int neuro_neurons = 0;
  size_t na = 100000;
  size_t nb = 200000;
  float epsilon = 5.0f;
  uint64_t seed = 42;
  std::string file_a;
  std::string file_b;
  // Generation mode.
  std::string generate;
  size_t count = 100000;
  std::string out_path;
  /// Engine index-cache cap for --algo=auto (0 = unbounded).
  size_t cache_bytes = 0;
  /// --algo=auto: cancel a request that exceeds this wall-clock budget
  /// (0 = no timeout). Set as JoinRequest::deadline, so the engine itself
  /// enforces it even if this process stopped waiting.
  int timeout_ms = 0;
  /// --algo=auto: shards per dataset; > 1 routes auto runs through the
  /// sharded scatter-gather engine.
  int shards = 1;
  /// --algo=auto: print histogram-based estimates vs measured actuals.
  bool explain = false;
  /// --algo=auto: after the first run, apply this many randomized mutation
  /// batches to dataset A, re-running the join after each and printing an
  /// order-independent result checksum (the sharded-vs-unsharded identity
  /// harness diffs these lines).
  int mutate_batches = 0;
  /// Mutations per batch (insert/delete/update mix).
  int mutate_ops = 64;
  /// Seed of the mutation stream (default: derived from --seed).
  uint64_t mutate_seed = 0;
  bool mutate_seed_set = false;
  /// Kernel dispatch level: "auto" (cpuid-widest) or a forced level name.
  std::string simd = "auto";
  /// --algo=auto: measured-run feedback calibrating the planner.
  bool calibration = true;
  /// Write a Chrome/Perfetto trace of the engine-run requests here.
  std::string trace_out;
  /// Write a Prometheus text-format metrics snapshot here.
  std::string metrics_out;
  bool csv = false;
  bool help = false;
};

constexpr auto Format = StrFormat;  // shared helper, see util/format.h

/// Parses a byte count with an optional k/m/g suffix ("64m" = 64 MiB).
/// Returns false on garbage, a bad suffix, negative input (strtoull would
/// silently wrap it), or a value that overflows size_t after the suffix.
bool ParseByteCount(const std::string& value, size_t* bytes) {
  if (value.empty() || !std::isdigit(static_cast<unsigned char>(value[0]))) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(value.c_str(), &end, 10);
  if (end == value.c_str() || errno == ERANGE) return false;
  int shift = 0;
  if (*end != '\0') {
    switch (*end) {
      case 'k': case 'K': shift = 10; break;
      case 'm': case 'M': shift = 20; break;
      case 'g': case 'G': shift = 30; break;
      default: return false;
    }
    if (*(end + 1) != '\0') return false;
  }
  if (parsed > (std::numeric_limits<size_t>::max() >> shift)) return false;
  *bytes = static_cast<size_t>(parsed) << shift;
  return true;
}

void PrintUsage() {
  std::puts(
      "spatial_join_cli - run in-memory spatial joins (TOUCH, SIGMOD'13)\n"
      "\n"
      "Join mode (default):\n"
      "  --algo=NAME[,NAME...]  algorithms: nl ps pbsm-<res> s3 inl rtree\n"
      "                         rtree-hilbert rtree-tgs rtree-guttman\n"
      "                         rtree-rstar touch, 'all', or 'auto'\n"
      "                         (cost-based planner; prints the chosen plan)\n"
      "                         (default: touch)\n"
      "  --a=FILE --b=FILE      load datasets (.bin from --generate, or .csv)\n"
      "  --dist=NAME            uniform|gaussian|clustered (default uniform)\n"
      "  --neuro=N              neuroscience workload grown from N neurons\n"
      "                         (axons as A, dendrites as B; overrides --dist)\n"
      "  --na=N --nb=N          generated dataset sizes (default 100k/200k)\n"
      "  --epsilon=E            distance threshold (default 5)\n"
      "  --seed=S               RNG seed (default 42)\n"
      "  --cache-bytes=N[kmg]   cap the --algo=auto index cache (cost-aware\n"
      "                         eviction; default unbounded)\n"
      "  --timeout-ms=N         cancel an --algo=auto request that runs\n"
      "                         longer than N milliseconds (default: none);\n"
      "                         enforced by the engine as a request deadline\n"
      "  --shards=K             partition each dataset into K spatial shards\n"
      "                         and scatter-gather --algo=auto joins across\n"
      "                         shard pairs (default 1 = unsharded); with\n"
      "                         --explain, prints the per-shard-pair plans\n"
      "  --explain              after each --algo=auto run, print the plan's\n"
      "                         histogram-based estimates next to the\n"
      "                         measured actuals\n"
      "  --mutate=N             after the first --algo=auto run, apply N\n"
      "                         randomized insert/delete/update batches to\n"
      "                         dataset A, re-running the join after each and\n"
      "                         printing 'mutation batch i: ... checksum=...'\n"
      "                         (order-independent over result pairs, so\n"
      "                         --shards=1 and --shards=K lines must match)\n"
      "  --mutate-ops=K         mutations per batch (default 64)\n"
      "  --mutate-seed=S        mutation-stream seed (default: --seed + 1000)\n"
      "  --simd=LEVEL           kernel dispatch: auto|scalar|sse2|avx2|neon\n"
      "                         (default auto = widest cpuid-supported level;\n"
      "                         forcing a level this host cannot run is an\n"
      "                         error, never a silent fallback; equivalent\n"
      "                         env var: TOUCH_SIMD_LEVEL)\n"
      "  --calibration=on|off   measured-run feedback: cold runs train the\n"
      "                         planner's cost models, overriding its static\n"
      "                         rules (default on)\n"
      "  --trace-out=FILE       write a Chrome/Perfetto trace (JSON) of the\n"
      "                         engine-run requests; open in ui.perfetto.dev\n"
      "                         or summarize with tools/trace_summary.py\n"
      "  --metrics-out=FILE     write a Prometheus text-format snapshot of\n"
      "                         the engine/cache/pool metrics after the run\n"
      "  --csv                  machine-readable output\n"
      "\n"
      "Generate mode:\n"
      "  --generate=DIST --count=N --out=FILE[.csv]  write a dataset\n");
}

bool ParseFlag(const std::string& arg, const std::string& name,
               std::string* value) {
  const std::string prefix = "--" + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

bool ParseArgs(int argc, char** argv, CliOptions* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (arg == "--help" || arg == "-h") {
      options->help = true;
    } else if (arg == "--csv") {
      options->csv = true;
    } else if (ParseFlag(arg, "algo", &value)) {
      options->algorithms.clear();
      std::stringstream stream(value);
      std::string name;
      while (std::getline(stream, name, ',')) {
        options->algorithms.push_back(name);
      }
    } else if (ParseFlag(arg, "dist", &value)) {
      options->distribution = value;
    } else if (ParseFlag(arg, "neuro", &value)) {
      options->neuro_neurons = std::atoi(value.c_str());
    } else if (ParseFlag(arg, "na", &value)) {
      options->na = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "nb", &value)) {
      options->nb = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "epsilon", &value)) {
      options->epsilon = std::strtof(value.c_str(), nullptr);
    } else if (ParseFlag(arg, "seed", &value)) {
      options->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "a", &value)) {
      options->file_a = value;
    } else if (ParseFlag(arg, "b", &value)) {
      options->file_b = value;
    } else if (ParseFlag(arg, "generate", &value)) {
      options->generate = value;
    } else if (ParseFlag(arg, "count", &value)) {
      options->count = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "out", &value)) {
      options->out_path = value;
    } else if (ParseFlag(arg, "cache-bytes", &value)) {
      if (!ParseByteCount(value, &options->cache_bytes)) {
        std::fprintf(stderr, "bad --cache-bytes value: %s\n", value.c_str());
        return false;
      }
    } else if (ParseFlag(arg, "timeout-ms", &value)) {
      options->timeout_ms = std::atoi(value.c_str());
      if (options->timeout_ms <= 0) {
        std::fprintf(stderr, "bad --timeout-ms value: %s (expected > 0)\n",
                     value.c_str());
        return false;
      }
    } else if (ParseFlag(arg, "shards", &value)) {
      options->shards = std::atoi(value.c_str());
      if (options->shards < 1) {
        std::fprintf(stderr, "bad --shards value: %s (expected >= 1)\n",
                     value.c_str());
        return false;
      }
    } else if (ParseFlag(arg, "trace-out", &value)) {
      options->trace_out = value;
    } else if (ParseFlag(arg, "metrics-out", &value)) {
      options->metrics_out = value;
    } else if (ParseFlag(arg, "mutate", &value)) {
      options->mutate_batches = std::atoi(value.c_str());
      if (options->mutate_batches < 1) {
        std::fprintf(stderr, "bad --mutate value: %s (expected >= 1)\n",
                     value.c_str());
        return false;
      }
    } else if (ParseFlag(arg, "mutate-ops", &value)) {
      options->mutate_ops = std::atoi(value.c_str());
      if (options->mutate_ops < 1) {
        std::fprintf(stderr, "bad --mutate-ops value: %s (expected >= 1)\n",
                     value.c_str());
        return false;
      }
    } else if (ParseFlag(arg, "mutate-seed", &value)) {
      options->mutate_seed = std::strtoull(value.c_str(), nullptr, 10);
      options->mutate_seed_set = true;
    } else if (arg == "--explain") {
      options->explain = true;
    } else if (ParseFlag(arg, "simd", &value)) {
      options->simd = value;
    } else if (ParseFlag(arg, "calibration", &value)) {
      if (value == "on" || value == "1") {
        options->calibration = true;
      } else if (value == "off" || value == "0") {
        options->calibration = false;
      } else {
        std::fprintf(stderr,
                     "bad --calibration value: %s (expected on|off)\n",
                     value.c_str());
        return false;
      }
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

int RunGenerate(const CliOptions& options) {
  Distribution distribution;
  if (!ParseDistribution(options.generate, &distribution)) {
    std::fprintf(stderr, "unknown distribution '%s'\n",
                 options.generate.c_str());
    return 1;
  }
  if (options.out_path.empty()) {
    std::fprintf(stderr, "--generate requires --out=FILE\n");
    return 1;
  }
  const Dataset boxes =
      GenerateSynthetic(distribution, options.count, options.seed);
  const IoStatus status = EndsWith(options.out_path, ".csv")
                              ? WriteBoxesCsv(options.out_path, boxes)
                              : WriteBoxesBinary(options.out_path, boxes);
  if (!status.ok) {
    std::fprintf(stderr, "%s\n", status.message.c_str());
    return 1;
  }
  std::printf("wrote %zu %s boxes to %s\n", boxes.size(),
              DistributionName(distribution), options.out_path.c_str());
  return 0;
}

bool LoadDataset(const std::string& path, Dataset* boxes) {
  const IoStatus status = EndsWith(path, ".csv")
                              ? ReadBoxesCsv(path, boxes)
                              : ReadBoxesBinary(path, boxes);
  if (!status.ok) std::fprintf(stderr, "%s\n", status.message.c_str());
  return status.ok;
}

/// SplitMix64 finalizer: hashes one (a, b) result pair.
uint64_t MixPair(uint32_t a, uint32_t b) {
  uint64_t x = (static_cast<uint64_t>(a) << 32) | b;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// Order-independent pair-set checksum: the sum of per-pair hashes is the
/// same whatever order shards (or plans) emit them in, so two runs over
/// the same logical dataset print identical checksum lines.
class ChecksumCollector : public ResultCollector {
 public:
  void Emit(uint32_t a, uint32_t b) override {
    ++count_;
    sum_ += MixPair(a, b);
  }
  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }

 private:
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
};

/// Deterministic mutation-stream generator for the CLI's --mutate loop. It
/// tracks dataset A's live ids client-side — id assignment is deterministic
/// (inserts take the next free id in stream order, sharded or not), so the
/// generator never needs to read ids back from the engine.
class MutationStream {
 public:
  MutationStream(uint64_t seed, const Dataset& initial, const Box& domain)
      : rng_(seed), domain_(domain) {
    live_.resize(initial.size());
    for (uint32_t i = 0; i < initial.size(); ++i) live_[i] = i;
    next_id_ = static_cast<uint32_t>(initial.size());
  }

  std::vector<Mutation> NextBatch(int ops) {
    std::vector<Mutation> batch;
    batch.reserve(ops);
    for (int k = 0; k < ops; ++k) {
      const double roll = Uniform(0.0, 1.0);
      if (live_.empty() || roll < 0.4) {
        batch.push_back(Mutation{MutationKind::kInsert, kInvalidObjectId,
                                 RandomBox()});
        live_.push_back(next_id_++);
      } else if (roll < 0.7) {
        const size_t pick = PickLive();
        batch.push_back(Mutation{MutationKind::kDelete, live_[pick], Box{}});
        live_[pick] = live_.back();
        live_.pop_back();
      } else {
        batch.push_back(
            Mutation{MutationKind::kUpdate, live_[PickLive()], RandomBox()});
      }
    }
    return batch;
  }

  size_t live_count() const { return live_.size(); }

 private:
  double Uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(rng_);
  }
  size_t PickLive() {
    return std::uniform_int_distribution<size_t>(0, live_.size() - 1)(rng_);
  }
  /// A small box whose center lands in the registration domain enlarged by
  /// 10% — some centers fall outside, exercising the sharded router's
  /// grid-clamped boundary path.
  Box RandomBox() {
    const Vec3 extent = domain_.Extent();
    Vec3 center;
    center.x = domain_.lo.x + static_cast<float>(Uniform(-0.1, 1.1)) * extent.x;
    center.y = domain_.lo.y + static_cast<float>(Uniform(-0.1, 1.1)) * extent.y;
    center.z = domain_.lo.z + static_cast<float>(Uniform(-0.1, 1.1)) * extent.z;
    Vec3 half;
    half.x = static_cast<float>(Uniform(0.05, 2.5));
    half.y = static_cast<float>(Uniform(0.05, 2.5));
    half.z = static_cast<float>(Uniform(0.05, 2.5));
    return Box{center - half, center + half};
  }

  std::mt19937_64 rng_;
  Box domain_;
  std::vector<uint32_t> live_;
  uint32_t next_id_ = 0;
};

int RunJoin(const CliOptions& options) {
  Dataset a;
  Dataset b;
  if (!options.file_a.empty() || !options.file_b.empty()) {
    if (options.file_a.empty() || options.file_b.empty()) {
      std::fprintf(stderr, "--a and --b must be given together\n");
      return 1;
    }
    if (!LoadDataset(options.file_a, &a) || !LoadDataset(options.file_b, &b)) {
      return 1;
    }
  } else if (options.neuro_neurons > 0) {
    NeuroOptions neuro;
    neuro.neurons = options.neuro_neurons;
    const NeuroModel model = GenerateNeuroscience(neuro, options.seed);
    a = CylinderMbrs(model.axons);
    b = CylinderMbrs(model.dendrites);
  } else {
    Distribution distribution;
    if (!ParseDistribution(options.distribution, &distribution)) {
      std::fprintf(stderr, "unknown distribution '%s'\n",
                   options.distribution.c_str());
      return 1;
    }
    a = GenerateSynthetic(distribution, options.na, options.seed);
    b = GenerateSynthetic(distribution, options.nb, options.seed + 1);
  }

  std::vector<std::string> algorithms = options.algorithms;
  if (algorithms.size() == 1 && algorithms[0] == "all") {
    algorithms = AllAlgorithmNames();
  }
  if (options.explain &&
      std::find(algorithms.begin(), algorithms.end(), "auto") ==
          algorithms.end()) {
    std::fprintf(stderr, "note: --explain only applies to --algo=auto\n");
  }
  if (options.explain) {
    // Runtime kernel dispatch: the level the epsilon-overlap kernels
    // actually resolved to (auto-detected or forced), the batch width, and
    // what the cpuid probe saw.
    std::fprintf(options.csv ? stderr : stdout,
                 "explain: simd dispatch: %s, %d lanes/batch (%s; cpu: %s)\n",
                 SimdLevelName(), SimdWidth(),
                 SimdLevelForced() ? "forced" : "auto-detected",
                 simd::DetectCpuFeatures().ToString().c_str());
  }

  if (options.csv) {
    std::puts(
        "algorithm,results,comparisons,filtered,memory_bytes,total_s,"
        "build_s,assign_s,join_s");
  } else {
    std::printf("|A| = %zu, |B| = %zu, epsilon = %g\n", a.size(), b.size(),
                options.epsilon);
    std::printf("%-14s %12s %15s %10s %11s %9s\n", "algorithm", "results",
                "comparisons", "filtered", "memory(MB)", "time(s)");
  }

  // Created eagerly when the list contains "auto": the engine owns dataset
  // copies with precomputed stats and keeps built indexes cached across
  // repeated autos. Fixed algorithms in a mixed list also run through it —
  // as cold *teaching runs* (cache cleared first, so timings match the
  // engineless path) whose measurements calibrate later autos.
  std::unique_ptr<QueryEngine> engine;
  std::unique_ptr<ShardedQueryEngine> sharded;
  DatasetHandle handle_a = 0;
  DatasetHandle handle_b = 0;
  // Observability sinks exist whenever their flags are set, so the export
  // below always has an object to drain — even if no engine run fills it.
  std::shared_ptr<Tracer> tracer;
  std::shared_ptr<MetricsRegistry> metrics;
  if (!options.trace_out.empty()) tracer = std::make_shared<Tracer>();
  if (!options.metrics_out.empty()) {
    metrics = std::make_shared<MetricsRegistry>();
  }
  const bool has_auto = std::find(algorithms.begin(), algorithms.end(),
                                  "auto") != algorithms.end();
  if ((tracer != nullptr || metrics != nullptr) && !has_auto) {
    std::fprintf(stderr,
                 "note: --trace-out/--metrics-out record --algo=auto engine "
                 "runs; output will be empty\n");
  }
  if (has_auto) {
    EngineOptions engine_options;
    engine_options.max_cache_bytes = options.cache_bytes;
    engine_options.calibration.enabled = options.calibration;
    engine_options.shards = options.shards;
    engine_options.tracer = tracer;
    engine_options.metrics = metrics;
    if (options.shards > 1) {
      // --shards routes auto runs through the scatter-gather engine; fixed
      // names in a mixed list fall back to the engineless path (per-shard
      // teaching runs would not be comparable evidence).
      sharded = std::make_unique<ShardedQueryEngine>(engine_options);
      handle_a = sharded->RegisterDataset("A", a);
      handle_b = sharded->RegisterDataset("B", b);
      if (algorithms.size() > 1) {
        std::fprintf(stderr,
                     "note: with --shards>1, fixed algorithms run unsharded "
                     "and do not teach the auto planner\n");
      }
    } else {
      engine = std::make_unique<QueryEngine>(engine_options);
      handle_a = engine->RegisterDataset("A", a);
      handle_b = engine->RegisterDataset("B", b);
    }
  }

  // Shared by both auto paths: the request (with --timeout-ms mapped onto
  // the engine-enforced deadline) and the estimated-vs-measured ratio of
  // the explain report.
  const auto make_auto_request = [&] {
    JoinRequest request{handle_a, handle_b, options.epsilon};
    if (options.timeout_ms > 0) {
      request.deadline = std::chrono::steady_clock::now() +
                         std::chrono::milliseconds(options.timeout_ms);
    }
    return request;
  };
  const auto estimate_ratio = [](double estimated, uint64_t measured) {
    return measured > 0 && estimated > 0
               ? Format(" (%.2fx)", estimated / static_cast<double>(measured))
               : std::string();
  };

  bool auto_ran = false;
  for (const std::string& name : algorithms) {
    JoinStats stats;
    CountingCollector out;
    std::string display_name = name;
    if (name == "auto" && sharded != nullptr) {
      auto_ran = true;
      ShardedRequestHandle handle = sharded->Submit(make_auto_request());
      ShardedJoinResult result = handle.Get();
      if (result.merged.cancelled()) {
        std::fprintf(stderr,
                     "auto: cancelled after exceeding --timeout-ms=%d "
                     "(sharded request)\n",
                     options.timeout_ms);
        continue;
      }
      if (!result.merged.error.empty()) {
        std::fprintf(stderr, "%s\n", result.merged.error.c_str());
        return 1;
      }
      std::FILE* report = options.csv ? stderr : stdout;
      std::fprintf(report, "plan: %zu shards/dataset, %zu shard pairs: %zu "
                   "executed, %zu pruned%s\n  reason: %s\n",
                   static_cast<size_t>(sharded->shards()),
                   result.shard_pairs_total, result.pairs.size(),
                   result.pruned.size(),
                   result.merged.index_cache_hit ? " [index cache hit]" : "",
                   result.merged.plan.rationale.c_str());
      if (options.explain) {
        // The per-shard plan report: every executed pair with its centrally
        // computed plan and measured outcome; pruned pairs listed after.
        for (const ShardPairReport& pair : result.pairs) {
          std::fprintf(
              report,
              "  shard[%d,%d]: algorithm=%s results=%llu time=%.4fs%s%s\n",
              pair.shard_a, pair.shard_b, pair.plan.algorithm.c_str(),
              static_cast<unsigned long long>(pair.stats.results),
              pair.stats.total_seconds,
              pair.index_cache_hit ? " [cache hit]" : "",
              pair.status == RequestStatus::kOk ? "" : " [not ok]");
        }
        for (const auto& [shard_a, shard_b] : result.pruned) {
          std::fprintf(report, "  shard[%d,%d]: pruned (MBRs cannot meet)\n",
                       shard_a, shard_b);
        }
        std::fprintf(report,
                     "explain: results estimated %.4g, measured %llu%s; "
                     "%llu boundary duplicates dropped\n",
                     result.merged.plan.expected_results,
                     static_cast<unsigned long long>(
                         result.merged.stats.results),
                     estimate_ratio(result.merged.plan.expected_results,
                                    result.merged.stats.results)
                         .c_str(),
                     static_cast<unsigned long long>(result.deduplicated));
      }
      stats = result.merged.stats;
      display_name = Format("auto:sharded-%d", sharded->shards());
    } else if (name == "auto") {
      auto_ran = true;
      // The engine enforces the budget itself (JoinRequest::deadline) —
      // the wait below is only for reporting which phase the request was
      // in, plus a belt-and-braces Cancel.
      RequestHandle handle = engine->Submit(make_auto_request());
      RequestPhase timed_out_in = RequestPhase::kQueued;
      if (options.timeout_ms > 0 &&
          handle.future().wait_for(std::chrono::milliseconds(
              options.timeout_ms)) == std::future_status::timeout) {
        timed_out_in = handle.phase();
        handle.Cancel();
      }
      const JoinResult result = handle.Get();
      if (result.cancelled()) {
        std::fprintf(stderr,
                     "auto: cancelled after exceeding --timeout-ms=%d "
                     "(request was %s)\n",
                     options.timeout_ms, RequestPhaseName(timed_out_in));
        continue;
      }
      if (!result.error.empty()) {
        std::fprintf(stderr, "%s\n", result.error.c_str());
        return 1;
      }
      // Plans go to stderr in csv mode so stdout stays machine-readable.
      std::FILE* report = options.csv ? stderr : stdout;
      std::fprintf(report, "plan: %s%s\n", result.plan.ToString().c_str(),
                   result.index_cache_hit ? "\n  [index cache hit]" : "");
      if (options.explain) {
        // Histogram-based estimates next to what the run actually measured:
        // the planner's accuracy is inspectable per query.
        std::fprintf(report,
                     "explain: results estimated %.4g, measured %llu%s\n",
                     result.plan.expected_results,
                     static_cast<unsigned long long>(result.stats.results),
                     estimate_ratio(result.plan.expected_results,
                                    result.stats.results)
                         .c_str());
        if (result.plan.calibrated) {
          std::string note = "calibrated";
          if (result.plan.static_algorithm != result.plan.algorithm) {
            note += ", static rule chose " + result.plan.static_algorithm;
          }
          std::fprintf(report,
                       "explain: cost predicted %.4gs, measured %.4gs (%s)\n",
                       result.plan.predicted_seconds,
                       result.stats.total_seconds, note.c_str());
        } else if (!engine->options().calibration.enabled) {
          std::fprintf(report,
                       "explain: calibration disabled (--calibration=off); "
                       "static plan, no cost prediction\n");
        } else {
          std::fprintf(
              report,
              "explain: no calibrated cost prediction yet (%llu cold runs "
              "recorded; families need %zu each, the static choice among "
              "them)\n",
              static_cast<unsigned long long>(
                  engine->feedback().total_recorded()),
              engine->options().calibration.min_samples);
        }
      }
      stats = result.stats;
      display_name = "auto:" + result.plan.algorithm;
    } else if (engine != nullptr) {
      // Mixed --algo list: fixed runs are evidence for the calibrator. In
      // the teaching phase (before the first auto) the cache is cleared so
      // repeated fixed names each measure a cold build; once an auto has
      // run, its cached artifacts are left alone — a later fixed run only
      // records when it happens to be cold. Note the engine may orient a
      // fixed join differently (build side, cache accounting) than the
      // engineless fixed-only path, so rows are comparable within one
      // invocation, not across the two modes.
      if (MakeAlgorithm(name) == nullptr) {
        std::fprintf(stderr, "%s; this CLI also accepts 'auto' and 'all'\n",
                     UnknownAlgorithmMessage(name).c_str());
        return 1;
      }
      if (!auto_ran) engine->ClearIndexCache();
      const JoinRequest request{handle_a, handle_b, options.epsilon};
      const JoinResult result = engine->ExecuteFixed(name, request, out);
      if (!result.error.empty()) {
        std::fprintf(stderr, "%s\n", result.error.c_str());
        return 1;
      }
      stats = result.stats;
    } else {
      std::unique_ptr<SpatialJoinAlgorithm> algorithm = MakeAlgorithm(name);
      if (algorithm == nullptr) {
        std::fprintf(stderr, "%s; this CLI also accepts 'auto' and 'all'\n",
                     UnknownAlgorithmMessage(name).c_str());
        return 1;
      }
      stats = DistanceJoin(*algorithm, a, b, options.epsilon, out);
    }
    if (options.csv) {
      std::printf("%s,%llu,%llu,%llu,%zu,%.6f,%.6f,%.6f,%.6f\n",
                  display_name.c_str(),
                  static_cast<unsigned long long>(stats.results),
                  static_cast<unsigned long long>(stats.comparisons),
                  static_cast<unsigned long long>(stats.filtered),
                  stats.memory_bytes, stats.total_seconds, stats.build_seconds,
                  stats.assign_seconds, stats.join_seconds);
    } else {
      std::printf("%-14s %12llu %15llu %10llu %11.2f %9.3f\n",
                  display_name.c_str(),
                  static_cast<unsigned long long>(stats.results),
                  static_cast<unsigned long long>(stats.comparisons),
                  static_cast<unsigned long long>(stats.filtered),
                  static_cast<double>(stats.memory_bytes) / (1024.0 * 1024.0),
                  stats.total_seconds);
    }
  }
  // The --mutate loop: dataset A changes under the engine's feet, and the
  // re-run after each batch goes through the versioned cache and the
  // incremental stats path. The checksum lines are the identity harness's
  // contract: a sharded and an unsharded run over the same seeds must print
  // byte-identical 'mutation batch' lines.
  if (options.mutate_batches > 0) {
    if (engine == nullptr && sharded == nullptr) {
      std::fprintf(stderr, "--mutate requires --algo=auto\n");
      return 1;
    }
    Box domain = Box::Empty();
    for (const Box& box : a) domain.ExpandToContain(box);
    const uint64_t mutate_seed = options.mutate_seed_set
                                     ? options.mutate_seed
                                     : options.seed + 1000;
    MutationStream stream(mutate_seed, a, domain);
    std::FILE* report = options.csv ? stderr : stdout;
    for (int batch = 0; batch < options.mutate_batches; ++batch) {
      const std::vector<Mutation> muts = stream.NextBatch(options.mutate_ops);
      const uint64_t version =
          sharded != nullptr ? sharded->ApplyMutations(handle_a, muts)
                             : engine->ApplyMutations(handle_a, muts);
      ChecksumCollector sink;
      const JoinRequest request = make_auto_request();
      std::string error;
      if (sharded != nullptr) {
        error = sharded->Execute(request, sink).merged.error;
      } else {
        error = engine->Execute(request, sink).error;
      }
      if (!error.empty()) {
        std::fprintf(stderr, "mutation batch %d: %s\n", batch, error.c_str());
        return 1;
      }
      std::fprintf(report,
                   "mutation batch %d: version=%llu live=%zu results=%llu "
                   "checksum=%016llx\n",
                   batch, static_cast<unsigned long long>(version),
                   stream.live_count(),
                   static_cast<unsigned long long>(sink.count()),
                   static_cast<unsigned long long>(sink.sum()));
    }
  }
  // Cache telemetry belongs to the auto plan report: hit rate and evictions
  // show whether the cap (if any) is sized right for the query mix.
  if (engine != nullptr || sharded != nullptr) {
    const IndexCache::Stats cache = engine != nullptr
                                        ? engine->cache_stats()
                                        : sharded->engine().cache_stats();
    std::fprintf(
        options.csv ? stderr : stdout,
        "index cache: %.0f%% hit rate (%llu/%llu), %llu evictions, "
        "%zu entries, %.2f MB%s, %.3fs of rebuilds avoided\n",
        cache.HitRate() * 100.0,
        static_cast<unsigned long long>(cache.hits),
        static_cast<unsigned long long>(cache.hits + cache.misses),
        static_cast<unsigned long long>(cache.evictions),
        cache.entries,
        static_cast<double>(cache.bytes) / (1024.0 * 1024.0),
        cache.capacity_bytes == 0 ? " (unbounded)" : "",
        cache.cost_saved_seconds);
  }
  // Exported while the engine is still alive: the registry's cache/pool
  // gauges are sampled through providers the engine owns.
  if (tracer != nullptr) {
    std::ofstream out(options.trace_out);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", options.trace_out.c_str());
      return 1;
    }
    tracer->ExportChromeTrace(out);
    std::fprintf(options.csv ? stderr : stdout, "trace: %zu spans -> %s%s\n",
                 tracer->span_count(), options.trace_out.c_str(),
                 tracer->drops() > 0 ? " (buffer overflow, spans dropped)"
                                     : "");
  }
  if (metrics != nullptr) {
    std::ofstream out(options.metrics_out);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", options.metrics_out.c_str());
      return 1;
    }
    metrics->ExportPrometheus(out);
    std::fprintf(options.csv ? stderr : stdout,
                 "metrics: %zu families -> %s\n", metrics->FamilyCount(),
                 options.metrics_out.c_str());
  }
  return 0;
}

int Main(int argc, char** argv) {
  CliOptions options;
  if (!ParseArgs(argc, argv, &options)) {
    PrintUsage();
    return 1;
  }
  if (options.help) {
    PrintUsage();
    return 0;
  }
  if (options.simd != "auto") {
    const std::optional<simd::Level> level = simd::ParseLevelName(options.simd);
    if (!level.has_value()) {
      std::fprintf(stderr,
                   "bad --simd value: %s (expected auto|scalar|sse2|avx2|"
                   "neon)\n",
                   options.simd.c_str());
      return 1;
    }
    std::string error;
    if (!ForceSimdLevel(*level, &error)) {
      std::fprintf(stderr, "--simd=%s: %s\n", options.simd.c_str(),
                   error.c_str());
      return 1;
    }
  }
  if (!options.generate.empty()) return RunGenerate(options);
  return RunJoin(options);
}

}  // namespace
}  // namespace touch

int main(int argc, char** argv) { return touch::Main(argc, argv); }
