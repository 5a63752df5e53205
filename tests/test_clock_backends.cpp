// Differential oracle for the pluggable clock backends (clock_backend.hpp)
// plus unit tests for the TreeClock structure itself.
//
// The contract under test: every backend computes *bit-identical* event
// clocks to the flat VectorClock baseline — join is a componentwise max
// under any representation, only the bookkeeping differs. Everything
// downstream (state counts, .pmt bytes, race sets) is a pure function of
// the event clocks, so the stream-level identity checked here is the
// strongest possible oracle; the enumeration and window-GC tests below
// re-verify the downstream counts anyway, as belt and braces.
#include <gtest/gtest.h>

#include <vector>

#include "core/online_paramount.hpp"
#include "detect/fasttrack.hpp"
#include "poset/clock_backend.hpp"
#include "poset/poset_builder.hpp"
#include "poset/tree_clock.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"
#include "util/sync.hpp"
#include "workloads/event_stream.hpp"
#include "workloads/scenarios/scenarios.hpp"

namespace paramount {
namespace {

using testing::as_set;
using testing::collect_all;
using testing::Key;
using testing::key_of;

// ---------------------------------------------------------------- TreeClock

TEST(TreeClock, StartsAtZeroAndTicks) {
  TreeClock tc(3, 1);
  EXPECT_EQ(tc.to_vector(), VectorClock(3));
  tc.increment();
  tc.increment();
  EXPECT_EQ(tc.to_vector(), (VectorClock{0, 2, 0}));
  EXPECT_TRUE(tc.check_structure());
}

TEST(TreeClock, JoinGraftsTheOtherClock) {
  TreeClock a(3, 0), b(3, 1);
  a.increment();
  b.increment();
  b.join(a);  // b learns a's tick
  EXPECT_EQ(b.to_vector(), (VectorClock{1, 1, 0}));
  a.increment();
  b.join(a);  // stale subtree refreshed in place
  EXPECT_EQ(b.to_vector(), (VectorClock{2, 1, 0}));
  a.join(b);
  EXPECT_EQ(a.to_vector(), (VectorClock{2, 1, 0}));
  EXPECT_TRUE(a.check_structure());
  EXPECT_TRUE(b.check_structure());
}

TEST(TreeClock, JoinPrunesAlreadyKnownSubtrees) {
  TreeClock a(4, 0), b(4, 1), c(4, 2);
  a.increment();
  b.increment();
  b.join(a);
  c.increment();
  c.join(b);  // c now knows a transitively
  const std::uint64_t before = c.nodes_visited();
  c.join(b);  // nothing new: fast path, no nodes visited
  EXPECT_EQ(c.nodes_visited(), before);
  EXPECT_EQ(c.to_vector(), (VectorClock{1, 1, 1, 0}));
}

TEST(TreeClock, AdoptMirrorsAlgorithm3) {
  // The worked Algorithm-3 chain from test_vector_clock: t0 acquires, then
  // t1 acquires and transitively sees t0's event through the lock.
  TreeClock t0(2, 0), t1(2, 1), lock(2, TreeClock::kNull);
  t0.increment();
  t0.join(lock);
  lock.adopt(t0);  // vcj ← vci
  EXPECT_EQ(lock.root(), 0u);
  t1.increment();
  t1.join(lock);
  lock.adopt(t1);
  EXPECT_EQ(lock.root(), 1u);
  EXPECT_EQ(t1.to_vector(), (VectorClock{1, 1}));
  EXPECT_EQ(lock.to_vector(), (VectorClock{1, 1}));
  EXPECT_TRUE(lock.check_structure());
}

// The real proof: arbitrary interleavings of tick/join/adopt over several
// threads and timelines stay equal to the flat computation, with the tree
// invariants intact after every step.
TEST(TreeClock, RandomizedDifferentialVsFlatClocks) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    const std::size_t n = 3 + rng.next_below(8);
    const std::size_t locks = 1 + rng.next_below(3);
    std::vector<VectorClock> flat_threads(n, VectorClock(n));
    std::vector<VectorClock> flat_locks(locks, VectorClock(n));
    std::vector<TreeClock> tree_threads;
    std::vector<TreeClock> tree_locks;
    for (std::size_t t = 0; t < n; ++t) {
      tree_threads.emplace_back(n, static_cast<ThreadId>(t));
    }
    for (std::size_t l = 0; l < locks; ++l) {
      tree_locks.emplace_back(n, TreeClock::kNull);
    }
    for (int op = 0; op < 400; ++op) {
      const auto tid = static_cast<ThreadId>(rng.next_below(n));
      const std::size_t kind = rng.next_below(3);
      if (kind == 0) {  // local tick
        flat_threads[tid][tid] += 1;
        tree_threads[tid].increment();
      } else if (kind == 1) {  // lock sync (Algorithm 3)
        const std::size_t l = rng.next_below(locks);
        calculate_vector_clock(tid, flat_threads[tid], flat_locks[l]);
        tree_threads[tid].increment();
        tree_threads[tid].join(tree_locks[l]);
        tree_locks[l].adopt(tree_threads[tid]);
        ASSERT_EQ(tree_locks[l].to_vector(), flat_locks[l])
            << "seed " << seed << " op " << op;
      } else {  // absorb another thread (fork/join edge)
        const auto src = static_cast<ThreadId>(rng.next_below(n));
        if (src == tid) continue;
        flat_threads[tid][tid] += 1;
        flat_threads[tid].join(flat_threads[src]);
        tree_threads[tid].increment();
        tree_threads[tid].join(tree_threads[src]);
      }
      ASSERT_EQ(tree_threads[tid].to_vector(), flat_threads[tid])
          << "seed " << seed << " op " << op;
      ASSERT_TRUE(tree_threads[tid].check_structure())
          << "seed " << seed << " op " << op;
    }
    for (const TreeClock& tl : tree_locks) {
      EXPECT_TRUE(tl.check_structure());
    }
  }
}

// ------------------------------------------------------------- ClockEngine

TEST(ClockBackend, ParseAndName) {
  ClockBackend backend = ClockBackend::kFlat;
  for (ClockBackend b : all_clock_backends()) {
    ASSERT_TRUE(parse_clock_backend(clock_backend_name(b), &backend));
    EXPECT_EQ(backend, b);
  }
  EXPECT_FALSE(parse_clock_backend("quantum", &backend));
  EXPECT_FALSE(parse_clock_backend("epoch", &backend));
}

// Same random op schedule through both engines: every materialized
// clock must match the flat baseline exactly, step by step.
TEST(ClockBackend, EnginesAgreeOnRandomSchedules) {
  for (const std::size_t n : {3u, 16u, 64u}) {
    std::vector<std::unique_ptr<ClockEngine>> engines;
    for (ClockBackend b : all_clock_backends()) {
      engines.push_back(ClockEngine::make(b, n));
    }
    Rng rng(99 + n);
    VectorClock want, got;
    for (int op = 0; op < 500; ++op) {
      const auto tid = static_cast<ThreadId>(rng.next_below(n));
      const std::size_t kind = rng.next_below(3);
      const std::size_t timeline = rng.next_below(5);
      auto src = static_cast<ThreadId>(rng.next_below(n));
      if (src == tid) src = static_cast<ThreadId>((src + 1) % n);
      for (std::size_t e = 0; e < engines.size(); ++e) {
        VectorClock* out = e == 0 ? &want : &got;
        if (kind == 0) {
          engines[e]->local_step(tid, out);
        } else if (kind == 1) {
          engines[e]->sync_step(tid, timeline, out);
        } else {
          engines[e]->absorb_step(tid, src, out);
        }
        if (e != 0) {
          ASSERT_EQ(got, want)
              << clock_backend_name(engines[e]->backend()) << " diverged at op "
              << op << " (n=" << n << ")";
        }
      }
    }
    // Snapshots agree too (the resting state, not just the event clocks).
    for (std::size_t t = 0; t < n; ++t) {
      engines[0]->snapshot(static_cast<ThreadId>(t), &want);
      for (std::size_t e = 1; e < engines.size(); ++e) {
        engines[e]->snapshot(static_cast<ThreadId>(t), &got);
        ASSERT_EQ(got, want);
      }
    }
  }
}

// The tree backend must do far less join work than flat when communication
// has locality — the whole point of the representation. 256 threads sync on
// per-neighborhood locks (16 threads each), so a join only ever needs to
// learn components from the thread's own neighborhood; flat still scans all
// 256 twice per sync. (Under uniformly random global mixing the transfer is
// genuinely dense and the saving shrinks to ~3x — bench_clocks covers that
// regime with wall-clock numbers.)
TEST(ClockBackend, TreeJoinWorkIsSublinearOnWideStreams) {
  constexpr std::size_t kThreads = 256;
  constexpr std::size_t kNeighborhood = 16;  // threads per lock
  auto flat = ClockEngine::make(ClockBackend::kFlat, kThreads);
  auto tree = ClockEngine::make(ClockBackend::kTree, kThreads);
  Rng rng(7);
  VectorClock want, got;
  for (int op = 0; op < 20000; ++op) {
    const ThreadId tid = static_cast<ThreadId>(rng.next_below(kThreads));
    const std::size_t lock = tid / kNeighborhood;
    flat->sync_step(tid, lock, &want);
    tree->sync_step(tid, lock, &got);
    ASSERT_EQ(got, want) << "op " << op;
  }
  EXPECT_LT(tree->join_work(), flat->join_work() / 8)
      << "neighborhood joins should touch ~16 of 256 components";
}

TEST(ClockBackend, SyntheticStreamsIdenticalAcrossBackends) {
  for (const std::size_t n : {16u, 64u}) {
    SyntheticEventStream::Params params;
    params.num_threads = n;
    params.num_locks = 4;
    params.sync_probability = 0.3;
    params.seed = 11;
    params.clock_backend = ClockBackend::kFlat;
    SyntheticEventStream flat(params);
    params.clock_backend = ClockBackend::kTree;
    SyntheticEventStream tree(params);
    for (int i = 0; i < 5000; ++i) {
      const auto want = flat.next();
      const auto got = tree.next();
      ASSERT_EQ(got.tid, want.tid);
      ASSERT_EQ(got.kind, want.kind);
      ASSERT_EQ(got.object, want.object);
      ASSERT_EQ(got.clock, want.clock) << "n=" << n << " event " << i;
    }
  }
}

// ---------------------------------------------------------------- Scenarios

void expect_identical_streams(const std::string& name, std::size_t threads,
                              std::uint64_t events) {
  ScenarioParams params;
  params.num_threads = threads;
  params.num_events = events;
  params.seed = 42;
  params.clock_backend = ClockBackend::kFlat;
  auto flat = make_scenario(name, params);
  ASSERT_NE(flat, nullptr) << name;
  params.clock_backend = ClockBackend::kTree;
  auto tree = make_scenario(name, params);
  trace::TraceEvent want, got;
  std::uint64_t i = 0;
  while (flat->next(&want)) {
    ASSERT_TRUE(tree->next(&got)) << name;
    ASSERT_EQ(got.tid, want.tid) << name << " event " << i;
    ASSERT_EQ(got.kind, want.kind) << name << " event " << i;
    ASSERT_EQ(got.object, want.object) << name << " event " << i;
    ASSERT_EQ(got.clock, want.clock) << name << " event " << i;
    ASSERT_EQ(got.accesses.size(), want.accesses.size());
    ++i;
  }
  EXPECT_FALSE(tree->next(&got));
}

// Identical TraceEvents imply identical .pmt bytes, replay results, and
// race sets for every scenario — the trace-level half of the oracle.
TEST(ClockBackend, ScenarioStreamsIdenticalAcrossBackends) {
  for (const std::string& name : scenario_names()) {
    expect_identical_streams(name, 8, 3000);
  }
}

TEST(ClockBackend, WideScenarioStreamsIdenticalAcrossBackends) {
  expect_identical_streams("lock-convoy-128", 8, 3000);
  expect_identical_streams("fanin-queue-256", 8, 4000);
}

TEST(Scenarios, WideVariantRegistry) {
  EXPECT_EQ(wide_scenario_names().size(), 3 * scenario_names().size());
  ScenarioParams params;
  params.num_events = 10;
  for (const std::string& name : wide_scenario_names()) {
    auto scenario = make_scenario(name, params);
    ASSERT_NE(scenario, nullptr) << name;
    const auto dash = name.find_last_of('-');
    EXPECT_EQ(scenario->num_threads(),
              static_cast<std::size_t>(std::stoul(name.substr(dash + 1))))
        << name;
  }
  EXPECT_EQ(make_scenario("lock-convoy-999", params), nullptr);
}

// ------------------------------------------------- downstream count oracles

std::vector<Key> online_states(SyntheticEventStream::Params params,
                               std::uint64_t total_events,
                               OnlineParamount::Options options) {
  std::vector<Key> states;
  Mutex mutex;
  OnlineParamount driver(
      params.num_threads, options,
      [&](const OnlinePoset&, EventId, const Frontier& f) {
        MutexLock guard(mutex);
        states.push_back(key_of(f));
      });
  SyntheticEventStream stream(params);
  for (std::uint64_t i = 0; i < total_events; ++i) {
    SyntheticEventStream::StreamEvent ev = stream.next();
    driver.submit(ev.tid, ev.kind, ev.object, std::move(ev.clock));
  }
  driver.drain();
  return states;
}

// test_window_gc's oracle, re-run per backend: the enumerated state set is
// identical with and without the sliding window, across all backends.
TEST(ClockBackend, WindowGcStatesIdenticalAcrossBackends) {
  SyntheticEventStream::Params params;
  params.num_threads = 6;
  params.num_locks = 2;
  params.sync_probability = 0.35;
  params.seed = 5;
  constexpr std::uint64_t kEvents = 3000;

  OnlineParamount::Options plain;
  OnlineParamount::Options windowed;
  windowed.window_policy.gc_every = 256;

  params.clock_backend = ClockBackend::kFlat;
  const auto reference = as_set(online_states(params, kEvents, plain));
  for (ClockBackend b : all_clock_backends()) {
    params.clock_backend = b;
    EXPECT_EQ(as_set(online_states(params, kEvents, plain)), reference)
        << clock_backend_name(b);
    EXPECT_EQ(as_set(online_states(params, kEvents, windowed)), reference)
        << clock_backend_name(b) << " (windowed)";
  }
}

// Offline enumeration (all three algorithms) over a poset built from each
// backend's stream: same states, same counts.
TEST(ClockBackend, EnumerationCountsIdenticalAcrossBackends) {
  constexpr std::size_t kThreads = 5;
  constexpr std::uint64_t kEvents = 60;
  std::vector<std::set<Key>> per_algorithm(3);
  bool have_reference = false;
  for (ClockBackend backend : all_clock_backends()) {
    SyntheticEventStream::Params params;
    params.num_threads = kThreads;
    params.num_locks = 2;
    params.sync_probability = 0.4;
    params.seed = 3;
    params.clock_backend = backend;
    SyntheticEventStream stream(params);
    PosetBuilder builder(kThreads);
    for (std::uint64_t i = 0; i < kEvents; ++i) {
      SyntheticEventStream::StreamEvent ev = stream.next();
      builder.add_event_with_clock(ev.tid, ev.kind, ev.object,
                                   std::move(ev.clock));
    }
    const Poset poset = std::move(builder).build();
    const EnumAlgorithm algorithms[] = {
        EnumAlgorithm::kBfs, EnumAlgorithm::kLexical, EnumAlgorithm::kDfs};
    for (int a = 0; a < 3; ++a) {
      const auto states = as_set(collect_all(algorithms[a], poset));
      if (!have_reference) {
        per_algorithm[a] = states;
      } else {
        EXPECT_EQ(states, per_algorithm[a])
            << clock_backend_name(backend) << " algorithm " << a;
      }
    }
    have_reference = true;
  }
  EXPECT_EQ(per_algorithm[0], per_algorithm[1]);
  EXPECT_EQ(per_algorithm[1], per_algorithm[2]);
}

// FastTrack race sets from the hot-var scenario's access stream are
// identical under every backend (the detector consumes backend-produced
// clocks directly).
TEST(ClockBackend, FastTrackRaceSetsIdenticalAcrossBackends) {
  const auto run = [](ClockBackend backend) {
    ScenarioParams params;
    params.num_threads = 8;
    params.num_events = 4000;
    params.seed = 42;
    params.clock_backend = backend;
    auto scenario = make_scenario("hot-var", params);
    FastTrackDetector detector(params.num_threads);
    trace::TraceEvent ev;
    while (scenario->next(&ev)) {
      for (const trace::TraceAccess& a : ev.accesses) {
        detector.on_raw_access(ev.tid, a.var, a.is_write, ev.clock);
      }
    }
    std::set<std::vector<std::uint32_t>> races;
    for (const RaceFinding& f : detector.report().findings()) {
      races.insert({f.var, f.first.tid, f.first.index, f.second.tid,
                    f.second.index});
    }
    return races;
  };
  const auto reference = run(ClockBackend::kFlat);
  EXPECT_FALSE(reference.empty());
  EXPECT_EQ(run(ClockBackend::kTree), reference);
}

}  // namespace
}  // namespace paramount
