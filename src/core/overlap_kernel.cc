#include "core/overlap_kernel.h"

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "geom/box.h"
#include "join/algorithm.h"
#include "util/cancellation.h"
#include "util/simd.h"
#include "util/stats.h"

// Runtime kernel dispatcher. The kernels themselves live in the per-ISA
// translation units (overlap_kernel_{scalar,sse2,avx2,neon}.cc, each a
// TOUCH_SIMD_TU_LEVEL instantiation of overlap_kernel_impl.h with its own
// compile flags); this TU — built with baseline flags only — picks which
// table the entry points forward through.

namespace touch {
namespace {

/// The table for `level`, or nullptr when this binary/CPU cannot run it.
/// Getters for levels another architecture compiles are not referenced at
/// all (their TUs are empty there), mirroring simd::LevelCompiledIn.
const OverlapKernelTable* TableFor(simd::Level level) {
  if (!simd::LevelSupported(level)) return nullptr;
  switch (level) {
    case simd::Level::kScalar:
      return &internal::KernelTableScalar();
    case simd::Level::kNeon:
#if defined(__aarch64__) || defined(__ARM_NEON) || defined(__ARM_NEON__)
      return &internal::KernelTableNeon();
#else
      return nullptr;
#endif
    case simd::Level::kSse2:
#if defined(__x86_64__) || defined(__i386__)
      return &internal::KernelTableSse2();
#else
      return nullptr;
#endif
    case simd::Level::kAvx2:
#if defined(__x86_64__) || defined(__i386__)
      return &internal::KernelTableAvx2();
#else
      return nullptr;
#endif
  }
  return nullptr;
}

std::string AvailableLevelNames() {
  std::string out;
  for (const simd::Level level : simd::RuntimeAvailableLevels()) {
    if (!out.empty()) out += ' ';
    out += simd::LevelName(level);
  }
  return out;
}

/// Active table + whether an override picked it. Tables are immutable
/// static-storage constants, so lock-free pointer swaps are safe: a reader
/// that loaded the previous table just runs the previously-selected (still
/// correct) kernels for that call.
std::atomic<const OverlapKernelTable*> g_active{nullptr};
std::atomic<bool> g_forced{false};

/// First-use resolution: TOUCH_SIMD_LEVEL (when set and not "auto") wins and
/// MUST be honored — an impossible request terminates the process with a
/// diagnostic rather than silently running a different ISA, so a forced CI
/// leg can never green-wash itself — otherwise widest-supported dispatch.
const OverlapKernelTable& ResolveInitialTable() {
  const char* env = std::getenv("TOUCH_SIMD_LEVEL");
  if (env != nullptr && *env != '\0' && std::string_view(env) != "auto") {
    const std::optional<simd::Level> level = simd::ParseLevelName(env);
    if (!level.has_value()) {
      std::fprintf(stderr,
                   "fatal: TOUCH_SIMD_LEVEL=%s is not a simd level "
                   "(expected auto, scalar, sse2, avx2, or neon)\n",
                   env);
      std::exit(EXIT_FAILURE);
    }
    const OverlapKernelTable* table = TableFor(*level);
    if (table == nullptr) {
      std::fprintf(stderr,
                   "fatal: TOUCH_SIMD_LEVEL=%s is not runnable here "
                   "(detected cpu features: %s; levels this binary can run: "
                   "%s)\n",
                   env, simd::DetectCpuFeatures().ToString().c_str(),
                   AvailableLevelNames().c_str());
      std::exit(EXIT_FAILURE);
    }
    g_forced.store(true, std::memory_order_relaxed);
    return *table;
  }
  return *TableFor(simd::DetectBestLevel());
}

}  // namespace

const OverlapKernelTable& ActiveKernels() {
  const OverlapKernelTable* table = g_active.load(std::memory_order_acquire);
  if (table == nullptr) {
    // Lazy idempotent init: concurrent first calls all resolve to the same
    // table (resolution is deterministic in env + cpuid), so losing the CAS
    // just means another thread installed that identical choice first.
    const OverlapKernelTable* resolved = &ResolveInitialTable();
    if (g_active.compare_exchange_strong(table, resolved,
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
      table = resolved;
    }
  }
  return *table;
}

simd::Level ActiveSimdLevel() { return ActiveKernels().level; }

bool ForceSimdLevel(simd::Level level, std::string* error) {
  const OverlapKernelTable* table = TableFor(level);
  if (table == nullptr) {
    if (error != nullptr) {
      *error = std::string("simd level '") + simd::LevelName(level) +
               "' is not runnable here (detected cpu features: " +
               simd::DetectCpuFeatures().ToString() +
               "; levels this binary can run: " + AvailableLevelNames() + ")";
    }
    return false;
  }
  g_forced.store(true, std::memory_order_relaxed);
  g_active.store(table, std::memory_order_release);
  return true;
}

bool SimdLevelForced() {
  ActiveKernels();  // resolve first, so a TOUCH_SIMD_LEVEL override is seen
  return g_forced.load(std::memory_order_relaxed);
}

const char* SimdLevelName() { return simd::LevelName(ActiveSimdLevel()); }
int SimdWidth() { return ActiveKernels().width; }
bool SimdEnabled() { return ActiveSimdLevel() != simd::Level::kScalar; }

// --- Entry points: forward through the active table --------------------------

size_t CollectOverlaps(const BoxSlab& slab, size_t begin, size_t end,
                       const Box& query, std::vector<uint32_t>& hits) {
  return ActiveKernels().collect(slab, begin, end, query, hits);
}

size_t CollectOverlapsUntilBeyondX(const BoxSlab& slab, size_t begin,
                                   size_t end, const Box& query,
                                   std::vector<uint32_t>& hits) {
  return ActiveKernels().sweep(slab, begin, end, query, hits);
}

int ClassifyOverlaps(const BoxSlab& slab, size_t begin, size_t end,
                     const Box& query, size_t* first, uint64_t* examined) {
  return ActiveKernels().classify(slab, begin, end, query, first, examined);
}

size_t CollectOverlapsGather(const BoxSlab& slab,
                             std::span<const uint32_t> positions,
                             const Box& query, std::vector<uint32_t>& hits) {
  return ActiveKernels().gather(slab, positions, query, hits);
}

uint64_t BatchedTreeProbe(const RTree& tree, const BoxSlab& items,
                          std::span<const Box> queries, float probe_epsilon,
                          bool swap_emit, JoinStats* stats,
                          ResultCollector& out, CancellationToken cancel) {
  return ActiveKernels().tree_probe(tree, items, queries, probe_epsilon,
                                    swap_emit, stats, out, cancel);
}

// --- ISA-independent pieces ---------------------------------------------------

OverlapScratch& ThreadLocalOverlapScratch() {
  thread_local OverlapScratch scratch;
  return scratch;
}

}  // namespace touch
