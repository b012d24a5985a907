// Self-tests of the benchmark's arithmetic (bench_math.h). run.py runs this
// binary after every build and refuses to benchmark when it fails.
//
//   .bench_build/enginebench/engine_bench_selftest

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <utility>
#include <vector>

#include "bench_math.h"

namespace {

int g_failures = 0;

void Check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED (line %d): %s\n", line, what);
    ++g_failures;
  }
}

#define CHECK(cond) Check((cond), #cond, __LINE__)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

using enginebench::Interval;

void TestPercentile() {
  CHECK(Near(enginebench::Percentile({}, 50), 0.0));
  CHECK(Near(enginebench::Percentile({7}, 99), 7.0));
  CHECK(Near(enginebench::Percentile({4, 1, 3, 2}, 50), 2.5));
  CHECK(Near(enginebench::Percentile({1, 2, 3, 4, 5}, 0), 1.0));
  CHECK(Near(enginebench::Percentile({1, 2, 3, 4, 5}, 100), 5.0));
  CHECK(Near(enginebench::Percentile({1, 2, 3, 4, 5}, 75), 4.0));
}

void TestTailSelection() {
  // The highest percentile with exactly 10 samples beyond it.
  CHECK(Near(enginebench::TailPercentile(10000), 99.9));
  CHECK(Near(enginebench::TailPercentile(1000), 99.0));
  CHECK(Near(enginebench::TailPercentile(200), 95.0));
  CHECK(Near(enginebench::TailPercentile(100), 90.0));
  CHECK(Near(enginebench::TailPercentile(40), 75.0));
  CHECK(Near(enginebench::TailPercentile(20), 50.0));
  // Too few samples for even the median: the median.
  CHECK(Near(enginebench::TailPercentile(5), 50.0));
  CHECK(Near(enginebench::TailPercentile(0), 50.0));
  // At the selected percentile exactly 10 of 40 samples lie above the
  // interpolated value: with samples 1..40 the p75 sits at 30.25.
  std::vector<double> samples;
  for (int i = 1; i <= 40; ++i) samples.push_back(i);
  const double tail = enginebench::Percentile(
      samples, enginebench::TailPercentile(samples.size()));
  CHECK(Near(tail, 30.25));
  int above = 0;
  for (const double v : samples) above += v > tail ? 1 : 0;
  CHECK(above == 10);
}

void TestSelfTime() {
  // No children: the whole duration.
  CHECK(enginebench::SelfTimeNs({0, 100}, {}) == 100);
  // Disjoint children subtract.
  CHECK(enginebench::SelfTimeNs({0, 100}, {{10, 20}, {50, 80}}) == 60);
  // Overlapping (parallel) children count once.
  CHECK(enginebench::SelfTimeNs({0, 100}, {{10, 40}, {20, 50}, {45, 60}}) ==
        50);
  // A child nested inside another child is covered by it.
  CHECK(enginebench::SelfTimeNs({0, 100}, {{10, 90}, {20, 30}}) == 20);
  // Children are clipped to the parent (a span recorded slightly late).
  CHECK(enginebench::SelfTimeNs({10, 100}, {{0, 30}, {90, 120}}) == 60);
  // Children outside the parent do not count at all.
  CHECK(enginebench::SelfTimeNs({10, 20}, {{30, 40}}) == 10);
  // Full cover leaves zero self time.
  CHECK(enginebench::SelfTimeNs({0, 100}, {{0, 60}, {60, 100}}) == 0);
}

void TestOpenLoop() {
  const enginebench::OpenLoopSchedule schedule{1000, 10};
  CHECK(schedule.Due(0) == 1000);
  CHECK(schedule.Due(3) == 1030);
  CHECK(schedule.CountBefore(1000) == 0);
  CHECK(schedule.CountBefore(1001) == 1);
  CHECK(schedule.CountBefore(1030) == 3);
  CHECK(schedule.CountBefore(1031) == 4);

  // A sequential generator over measured service times: operation k starts
  // at max(due_k, previous done), as the live generator's loop does.
  const auto replay = [&](const std::vector<int64_t>& service_ns) {
    std::vector<enginebench::OpenLoopCharge> out;
    int64_t previous_done = schedule.start_ns;
    for (size_t k = 0; k < service_ns.size(); ++k) {
      const int64_t started = std::max(schedule.Due(k), previous_done);
      previous_done = started + service_ns[k];
      out.push_back(schedule.Charge(k, started, previous_done));
    }
    return out;
  };
  // Keeping up: latency is the service time, nothing runs late.
  for (const auto& op : replay({4, 4, 4})) {
    CHECK(op.late_ns == 0);
    CHECK(op.latency_ns == 4);
  }
  // Tick 1 stalls for 35 ns: ticks 2-5 start late, and each is charged from
  // its own due time — the stall shows in every latency it caused.
  const auto stalled = replay({4, 35, 4, 4, 4, 4});
  CHECK(stalled[1].late_ns == 0 && stalled[1].latency_ns == 35);
  CHECK(stalled[2].late_ns == 25 && stalled[2].latency_ns == 29);
  CHECK(stalled[3].late_ns == 19 && stalled[3].latency_ns == 23);
  CHECK(stalled[4].late_ns == 13 && stalled[4].latency_ns == 17);
  CHECK(stalled[5].late_ns == 7 && stalled[5].latency_ns == 11);
}

void TestChecksum() {
  const std::vector<std::pair<uint32_t, uint32_t>> pairs = {
      {1, 2}, {2, 1}, {0, 0}, {7, 9}, {4000000000u, 3}};
  enginebench::PairChecksum forward;
  for (const auto& [a, b] : pairs) forward.Add(a, b);
  enginebench::PairChecksum backward;
  for (size_t i = pairs.size(); i-- > 0;) {
    backward.Add(pairs[i].first, pairs[i].second);
  }
  CHECK(forward == backward);
  CHECK(forward.count == 5);
  // (a, b) and (b, a) are different pairs.
  enginebench::PairChecksum ab;
  ab.Add(1, 2);
  enginebench::PairChecksum ba;
  ba.Add(2, 1);
  CHECK(!(ab == ba));
  // A delta stream folds to the set it describes: add 3, remove 1, re-add.
  enginebench::PairChecksum deltas;
  deltas.Add(7, 9);
  deltas.Add(1, 2);
  deltas.Add(5, 5);
  deltas.Remove(5, 5);
  deltas.Add(2, 1);
  enginebench::PairChecksum direct;
  direct.Add(2, 1);
  direct.Add(1, 2);
  direct.Add(7, 9);
  CHECK(deltas == direct);
  // Removing everything returns to the empty fold.
  deltas.Remove(7, 9);
  deltas.Remove(1, 2);
  deltas.Remove(2, 1);
  CHECK(deltas == enginebench::PairChecksum{});
}

}  // namespace

int main() {
  TestPercentile();
  TestTailSelection();
  TestSelfTime();
  TestOpenLoop();
  TestChecksum();
  if (g_failures != 0) {
    std::fprintf(stderr, "selftest: %d check(s) failed\n", g_failures);
    return 1;
  }
  std::fprintf(stderr, "selftest: all checks passed\n");
  return 0;
}
