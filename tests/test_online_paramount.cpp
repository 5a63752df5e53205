// Online ParaMount (Algorithm 4 + Theorem 3): streaming insertion with
// concurrent interval enumeration must enumerate exactly the states the
// offline algorithms enumerate over the final poset.
#include "core/online_paramount.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "poset/lattice.hpp"
#include "poset/online_poset.hpp"
#include "poset/topo_sort.hpp"
#include "test_helpers.hpp"
#include "util/sync.hpp"

namespace paramount {
namespace {

using testing::all_distinct;
using testing::as_set;
using testing::key_of;
using testing::make_random;
using testing::Key;

// Replays an offline poset into an OnlineParamount in the given insertion
// order (which must be a linear extension).
std::vector<Key> replay(const Poset& poset, const std::vector<EventId>& order,
                        OnlineParamount::Options options) {
  Mutex mutex;
  std::vector<Key> states;
  OnlineParamount online(
      poset.num_threads(), options,
      [&](const OnlinePoset&, EventId, const Frontier& f) {
        MutexLock guard(mutex);
        states.push_back(key_of(f));
      });
  for (const EventId id : order) {
    const Event& e = poset.event(id);
    online.submit(id.tid, e.kind, e.object, e.vc);
  }
  online.drain();
  return states;
}

TEST(OnlinePoset, InsertPublishesEventAndBounds) {
  OnlinePoset poset(2);
  const auto a = poset.insert(0, OpKind::kInternal, 0, VectorClock{1, 0});
  EXPECT_TRUE(a.first);
  EXPECT_EQ(a.id, (EventId{0, 1}));
  EXPECT_EQ(key_of(a.gmin), (Key{1, 0}));
  EXPECT_EQ(key_of(a.gbnd), (Key{1, 0}));

  const auto b = poset.insert(1, OpKind::kInternal, 0, VectorClock{1, 1});
  EXPECT_FALSE(b.first);
  EXPECT_EQ(b.position, 1u);
  EXPECT_EQ(key_of(b.gbnd), (Key{1, 1}));
  EXPECT_EQ(poset.total_events(), 2u);
  EXPECT_TRUE(poset.is_consistent(b.gbnd));
}

TEST(OnlinePoset, RejectsForwardReferences) {
  OnlinePoset poset(2);
  // Clock references event 1 of thread 1, which was never inserted.
  EXPECT_DEATH(poset.insert(0, OpKind::kInternal, 0, VectorClock{1, 1}),
               "not yet inserted");
}

TEST(OnlinePoset, RejectsBadOwnComponent) {
  OnlinePoset poset(2);
  EXPECT_DEATH(poset.insert(0, OpKind::kInternal, 0, VectorClock{5, 0}),
               "own clock component");
}

TEST(OnlinePoset, Figure8BoundaryDependsOnInsertionOrder) {
  // The paper's Figure 8: the same poset (e2[1] → e1[2]) inserted in two
  // different observed orders yields different Gbnd(e1[2]) snapshots — both
  // valid Definition-1 boundaries for their respective →p.
  {
    // (a) e1[1] →p e2[1] →p e1[2] →p e2[2]: snapshot misses e2[2].
    OnlinePoset poset(2);
    poset.insert(0, OpKind::kInternal, 0, VectorClock{1, 0});
    poset.insert(1, OpKind::kInternal, 0, VectorClock{0, 1});
    const auto e12 = poset.insert(0, OpKind::kInternal, 0, VectorClock{2, 1});
    poset.insert(1, OpKind::kInternal, 0, VectorClock{0, 2});
    EXPECT_EQ(key_of(e12.gbnd), (Key{2, 1}));
  }
  {
    // (b) e1[1] →p e2[1] →p e2[2] →p e1[2]: snapshot includes e2[2].
    OnlinePoset poset(2);
    poset.insert(0, OpKind::kInternal, 0, VectorClock{1, 0});
    poset.insert(1, OpKind::kInternal, 0, VectorClock{0, 1});
    poset.insert(1, OpKind::kInternal, 0, VectorClock{0, 2});
    const auto e12 = poset.insert(0, OpKind::kInternal, 0, VectorClock{2, 1});
    EXPECT_EQ(key_of(e12.gbnd), (Key{2, 2}));
  }
}

// Regression: the out-of-lock published_frontier() used to read the
// per-thread counters at different instants, so a reader racing a writer
// could observe a *torn* cut — thread 1's count read late includes events
// whose thread-0 predecessors were not counted. The writer below makes every
// thread-1 event depend on the latest thread-0 event, so any torn read is an
// inconsistent frontier; the snapshot must validate-and-retry (or fall back
// to the insertion lock) instead.
TEST(OnlinePoset, PublishedFrontierHammerStaysConsistent) {
  // 8 threads widen the snapshot's read window: the reader scans 8 counters
  // while the writer publishes rounds of 8 mutually dependent events, so a
  // torn (unvalidated) snapshot reliably catches an earlier-read counter
  // that is stale relative to a later-read one.
  constexpr ThreadId kThreads = 8;
  OnlinePoset poset(kThreads);
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> torn{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        const Frontier f = poset.published_frontier();
        if (!poset.is_consistent(f)) {
          // relaxed: failure tally, read after the readers join.
          torn.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  for (EventIndex i = 1; i <= 40000; ++i) {
    // Round i: thread t's event depends on every event this round published
    // before it, so any cut where an earlier thread's count trails a later
    // thread's is inconsistent.
    for (ThreadId t = 0; t < kThreads; ++t) {
      VectorClock vc(kThreads);
      for (ThreadId j = 0; j < kThreads; ++j) {
        vc[j] = j <= t ? i : i - 1;
      }
      poset.insert(t, OpKind::kInternal, 0, std::move(vc));
    }
  }
  done.store(true, std::memory_order_release);
  for (std::thread& r : readers) r.join();

  EXPECT_EQ(torn.load(), 0u);
}

TEST(OnlineParamount, SequentialReplayMatchesOracle) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Poset poset = make_random(4, 28, 0.4, seed);
    std::set<Key> oracle;
    for (const Frontier& f : all_ideals(poset)) oracle.insert(key_of(f));

    for (const auto policy :
         {TopoPolicy::kInterleave, TopoPolicy::kThreadMajor,
          TopoPolicy::kRandom}) {
      const auto order = topological_sort(poset, policy, seed);
      const auto states = replay(poset, order, {});
      EXPECT_TRUE(all_distinct(states));
      EXPECT_EQ(as_set(states), oracle) << to_string(policy);
    }
  }
}

TEST(OnlineParamount, AsyncWorkersMatchOracle) {
  const Poset poset = make_random(4, 26, 0.4, 11);
  std::set<Key> oracle;
  for (const Frontier& f : all_ideals(poset)) oracle.insert(key_of(f));

  OnlineParamount::Options options;
  options.async_workers = 3;
  const auto order = topological_sort(poset, TopoPolicy::kInterleave);
  const auto states = replay(poset, order, options);
  EXPECT_TRUE(all_distinct(states));
  EXPECT_EQ(as_set(states), oracle);
}

TEST(OnlineParamount, SubroutineChoiceIrrelevant) {
  const Poset poset = make_random(3, 21, 0.5, 13);
  const auto order = topological_sort(poset, TopoPolicy::kInterleave);
  std::set<Key> reference;
  for (const Frontier& f : all_ideals(poset)) reference.insert(key_of(f));
  for (const auto algorithm :
       {EnumAlgorithm::kBfs, EnumAlgorithm::kLexical, EnumAlgorithm::kDfs}) {
    OnlineParamount::Options options;
    options.subroutine = algorithm;
    EXPECT_EQ(as_set(replay(poset, order, options)), reference)
        << to_string(algorithm);
  }
}

TEST(OnlineParamount, CountsStatesAndIntervals) {
  const Poset poset = make_random(4, 20, 0.4, 17);
  const auto order = topological_sort(poset, TopoPolicy::kInterleave);
  OnlineParamount online(poset.num_threads(), {});
  for (const EventId id : order) {
    online.submit(id.tid, OpKind::kInternal, 0, poset.event(id).vc);
  }
  online.drain();
  EXPECT_EQ(online.intervals_processed(), poset.total_events());
  EXPECT_EQ(online.states_enumerated(), count_ideals(poset).value());
}

// Theorem 3 under real concurrency: producer threads submit their own
// thread's events as soon as all causal predecessors are published, while
// enumeration runs inline on the submitting threads.
TEST(OnlineParamount, ConcurrentProducersMatchOracle) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Poset poset = make_random(4, 32, 0.4, seed);
    std::set<Key> oracle;
    for (const Frontier& f : all_ideals(poset)) oracle.insert(key_of(f));

    Mutex mutex;
    std::vector<Key> states;
    OnlineParamount online(
        poset.num_threads(), {},
        [&](const OnlinePoset&, EventId, const Frontier& f) {
          MutexLock guard(mutex);
          states.push_back(key_of(f));
        });

    // One producer per poset thread; each waits (by spinning on the online
    // poset's published counts) until its next event's dependencies are in.
    std::vector<std::thread> producers;
    for (ThreadId t = 0; t < poset.num_threads(); ++t) {
      producers.emplace_back([&, t] {
        for (EventIndex i = 1; i <= poset.num_events(t); ++i) {
          const VectorClock& vc = poset.vc(t, i);
          while (true) {
            bool ready = true;
            for (ThreadId j = 0; j < poset.num_threads(); ++j) {
              if (j != t && online.poset().num_events(j) < vc[j]) {
                ready = false;
                break;
              }
            }
            if (ready) break;
            std::this_thread::yield();
          }
          online.submit(t, OpKind::kInternal, 0, vc);
        }
      });
    }
    for (std::thread& p : producers) p.join();
    online.drain();

    EXPECT_TRUE(all_distinct(states));
    EXPECT_EQ(as_set(states), oracle);
  }
}

}  // namespace
}  // namespace paramount
