// Unit tests of RaceReport: first-witness retention, exactness when
// variables share a hint slot, and a concurrent stress run whose result is
// checked against what the threads actually added.
#include "detect/race_report.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "util/rng.hpp"

namespace paramount {
namespace {

constexpr VarId kHints = RaceReport::kHints;

TEST(RaceReport, FirstWitnessIsKeptAcrossRepeatedAdds) {
  RaceReport report;
  report.add(5, EventId{0, 1}, EventId{1, 2});
  for (EventIndex i = 2; i < 50; ++i) {
    report.add(5, EventId{0, i}, EventId{1, i + 1});
  }
  const std::vector<RaceFinding> findings = report.findings();
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].var, 5u);
  EXPECT_EQ(findings[0].first, (EventId{0, 1}));
  EXPECT_EQ(findings[0].second, (EventId{1, 2}));
}

TEST(RaceReport, VariablesSharingAHintSlotAreAllRecorded) {
  RaceReport report;
  const VarId v = 9;
  const VarId vars[] = {v, v + kHints, v + 2 * kHints};
  // Interleaved, every add after the first finds the slot naming another
  // variable.
  for (EventIndex round = 1; round <= 3; ++round) {
    for (const VarId var : vars) {
      report.add(var, EventId{0, round}, EventId{1, var + 1});
    }
  }
  EXPECT_EQ(report.num_racy_vars(), 3u);
  const std::vector<RaceFinding> findings = report.findings();
  ASSERT_EQ(findings.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(report.has(vars[i]));
    EXPECT_EQ(findings[i].var, vars[i]);
    EXPECT_EQ(findings[i].first, (EventId{0, 1}));  // round 1 came first
    EXPECT_EQ(findings[i].second, (EventId{1, vars[i] + 1}));
  }
}

TEST(RaceReport, HasIsFalseForAVariableNeverAdded) {
  RaceReport report;
  const VarId v = 3;
  report.add(v, EventId{0, 1}, EventId{1, 1});
  // v + kHints maps to the slot that now names v.
  EXPECT_FALSE(report.has(v + kHints));
  EXPECT_FALSE(report.has(v + 1));
  EXPECT_TRUE(report.has(v));
  EXPECT_EQ(report.num_racy_vars(), 1u);
}

// Thread t's k-th add names this variable, so every finding's witness pair
// can be checked against the add that produced it.
constexpr std::size_t kStressThreads = 4;
constexpr std::size_t kAddsPerThread = 30000;
constexpr VarId kStressVars = 256;  // four variables per hint slot

VarId stress_var(ThreadId t, EventIndex k) {
  std::uint64_t state = (std::uint64_t{t} << 32) | k;
  return static_cast<VarId>(splitmix64(state) % kStressVars);
}

TEST(RaceReport, ConcurrentAddsRecordExactlyTheAddedSet) {
  RaceReport report;
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (ThreadId t = 0; t < kStressThreads; ++t) {
    threads.emplace_back([&report, &go, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (EventIndex k = 1; k <= kAddsPerThread; ++k) {
        const VarId var = stress_var(t, k);
        report.add(var, EventId{t, var + 1}, EventId{t, k});
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& th : threads) th.join();

  std::set<VarId> added;
  for (ThreadId t = 0; t < kStressThreads; ++t) {
    for (EventIndex k = 1; k <= kAddsPerThread; ++k) {
      added.insert(stress_var(t, k));
    }
  }
  ASSERT_GT(added.size(), 200u);

  std::set<VarId> recorded;
  for (const RaceFinding& f : report.findings()) {
    recorded.insert(f.var);
    // The witness pair is one some thread added for this variable.
    EXPECT_EQ(f.first.tid, f.second.tid);
    ASSERT_LT(f.second.tid, kStressThreads);
    EXPECT_GE(f.second.index, 1u);
    EXPECT_LE(f.second.index, kAddsPerThread);
    EXPECT_EQ(stress_var(f.second.tid, f.second.index), f.var);
    EXPECT_EQ(f.first.index, f.var + 1);
  }
  EXPECT_EQ(recorded, added);
  EXPECT_EQ(report.num_racy_vars(), added.size());
  for (const VarId var : added) EXPECT_TRUE(report.has(var));
  EXPECT_FALSE(report.has(kStressVars));
}

}  // namespace
}  // namespace paramount
