// Unit tests of the race predicate (Algorithms 5-6) and the online race
// detector on handcrafted posets.
#include "detect/race_predicate.hpp"

#include <gtest/gtest.h>

#include <set>
#include <tuple>
#include <vector>

#include "core/interval.hpp"
#include "core/online_paramount.hpp"
#include "detect/offline_bfs_detector.hpp"
#include "detect/online_detector.hpp"
#include "enumeration/dispatch.hpp"
#include "poset/poset_builder.hpp"
#include "util/rng.hpp"
#include "util/sync.hpp"

namespace paramount {
namespace {

// Builds a two-thread poset of collection events with the given access sets;
// `deps[i]` optionally orders collection i of thread 1 after a collection of
// thread 0.
struct Fixture {
  AccessTable table{2};

  AccessSet set_of(std::initializer_list<Access> accesses) {
    AccessSet s;
    for (const Access& a : accesses) s.merge(a.var, a.is_write, a.is_init);
    return s;
  }
};

TEST(RacePredicate, AccessConflictRules) {
  const Access write{1, true, false};
  const Access read{1, false, false};
  const Access other_read{2, false, false};
  const Access init_write{1, true, true};
  EXPECT_TRUE(accesses_conflict(write, read));
  EXPECT_TRUE(accesses_conflict(write, write));
  EXPECT_FALSE(accesses_conflict(read, read));
  EXPECT_FALSE(accesses_conflict(write, other_read));
  EXPECT_FALSE(accesses_conflict(init_write, read));
  EXPECT_FALSE(accesses_conflict(write, init_write));
}

TEST(RacePredicate, DetectsConflictOnConcurrentFrontier) {
  Fixture fx;
  PosetBuilder builder(2);
  const auto a0 = fx.table.append(0, fx.set_of({{7, true, false}}));
  builder.add_event(0, OpKind::kCollection, {}, a0);
  const auto a1 = fx.table.append(1, fx.set_of({{7, false, false}}));
  builder.add_event(1, OpKind::kCollection, {}, a1);
  const Poset poset = std::move(builder).build();

  RaceReport report;
  // State {1,1}: both collections in the frontier, concurrent.
  check_races(poset, fx.table, EventId{1, 1}, Frontier{1, 1}, report);
  EXPECT_TRUE(report.has(7));
}

TEST(RacePredicate, OrderedEventsDoNotRace) {
  Fixture fx;
  PosetBuilder builder(2);
  const auto a0 = fx.table.append(0, fx.set_of({{7, true, false}}));
  const EventId w = builder.add_event(0, OpKind::kCollection, {}, a0);
  const auto a1 = fx.table.append(1, fx.set_of({{7, true, false}}));
  builder.add_event_after(1, w, OpKind::kCollection, a1);  // ordered after
  const Poset poset = std::move(builder).build();

  RaceReport report;
  check_races(poset, fx.table, EventId{1, 1}, Frontier{1, 1}, report);
  EXPECT_FALSE(report.has(7));
}

TEST(RacePredicate, DifferentVariablesDoNotRace) {
  Fixture fx;
  PosetBuilder builder(2);
  const auto a0 = fx.table.append(0, fx.set_of({{1, true, false}}));
  builder.add_event(0, OpKind::kCollection, {}, a0);
  const auto a1 = fx.table.append(1, fx.set_of({{2, true, false}}));
  builder.add_event(1, OpKind::kCollection, {}, a1);
  const Poset poset = std::move(builder).build();

  RaceReport report;
  check_races(poset, fx.table, EventId{1, 1}, Frontier{1, 1}, report);
  EXPECT_EQ(report.num_racy_vars(), 0u);
}

TEST(RacePredicate, InitWritesExempt) {
  Fixture fx;
  PosetBuilder builder(2);
  const auto a0 = fx.table.append(0, fx.set_of({{7, true, true}}));  // init
  builder.add_event(0, OpKind::kCollection, {}, a0);
  const auto a1 = fx.table.append(1, fx.set_of({{7, false, false}}));
  builder.add_event(1, OpKind::kCollection, {}, a1);
  const Poset poset = std::move(builder).build();

  RaceReport report;
  check_races(poset, fx.table, EventId{1, 1}, Frontier{1, 1}, report);
  EXPECT_FALSE(report.has(7));
}

TEST(RacePredicate, MultipleAccessesInCollections) {
  Fixture fx;
  PosetBuilder builder(2);
  const auto a0 =
      fx.table.append(0, fx.set_of({{1, false, false}, {2, true, false}}));
  builder.add_event(0, OpKind::kCollection, {}, a0);
  const auto a1 =
      fx.table.append(1, fx.set_of({{2, false, false}, {3, true, false}}));
  builder.add_event(1, OpKind::kCollection, {}, a1);
  const Poset poset = std::move(builder).build();

  RaceReport report;
  check_races(poset, fx.table, EventId{1, 1}, Frontier{1, 1}, report);
  EXPECT_TRUE(report.has(2));   // write-read on var 2
  EXPECT_FALSE(report.has(1));  // read only on thread 0
  EXPECT_FALSE(report.has(3));  // write only on thread 1
}

TEST(RacePredicate, AllPairsVariantScansFrontier) {
  Fixture fx;
  AccessTable table(3);
  PosetBuilder builder(3);
  const auto a0 = table.append(0, fx.set_of({{5, true, false}}));
  builder.add_event(0, OpKind::kCollection, {}, a0);
  const auto a1 = table.append(1, fx.set_of({{5, true, false}}));
  builder.add_event(1, OpKind::kCollection, {}, a1);
  builder.add_event(2, OpKind::kInternal);  // no accesses
  const Poset poset = std::move(builder).build();

  RaceReport report;
  check_races_all_pairs(poset, table, Frontier{1, 1, 1}, report);
  EXPECT_TRUE(report.has(5));
  EXPECT_EQ(report.num_racy_vars(), 1u);
}

// End-to-end on Figure 1/2: e2 and e3 write the same address and are
// concurrent in G8 — the detector must predict the race even though the
// observed schedule ran them apart.
TEST(OnlineDetector, PredictsFigure1Race) {
  AccessTable table(2);
  OnlineRaceDetector detector(2, {});
  detector.attach(table);

  constexpr VarId kAddr = 3;
  // Thread 1: e1 (collection on some other var), x.notify is a sync (not
  // recorded), e3 writes kAddr. Thread 2: x.wait (sync), e2 writes kAddr
  // causally after notify.
  AccessSet e1;
  e1.merge(1, true, false);
  detector.on_event(0, OpKind::kCollection, table.append(0, e1),
                    VectorClock{1, 0});
  AccessSet e3;
  e3.merge(kAddr, true, false);
  detector.on_event(0, OpKind::kCollection, table.append(0, e3),
                    VectorClock{2, 0});
  AccessSet e2;
  e2.merge(kAddr, true, false);
  // e2 saw e1 (through the monitor) but not e3.
  detector.on_event(1, OpKind::kCollection, table.append(1, e2),
                    VectorClock{1, 1});
  detector.drain();

  EXPECT_TRUE(detector.report().has(kAddr));
  EXPECT_EQ(detector.report().num_racy_vars(), 1u);
  // All 8 global states of Figure 2(b) enumerated exactly once... the poset
  // here records only the 3 collections: i(P) = lattice of 2 chain events ×
  // 1, constrained by e1 → e2: frontiers {i,j}, j=1 → i ≥ 1: 5 states.
  EXPECT_EQ(detector.states_enumerated(), 5u);
}

// A four-thread trace over more racy variables than RaceReport has hint
// slots, so concurrent adds collide in them. Each collection touches a
// random subset of kVars variables; random lock hand-offs order some pairs.
// Events are kept in generation order, a linearization of →p.
struct ManyVarTrace {
  static constexpr std::size_t kThreads = 4;
  static constexpr int kCollections = 12;  // per thread
  static constexpr int kAccesses = 24;     // per collection, before merging
  static constexpr VarId kVars = 200;

  struct Ev {
    ThreadId tid;
    OpKind kind;
    std::uint32_t object;
    VectorClock clock;
  };
  AccessTable table{kThreads};
  std::vector<Ev> events;

  explicit ManyVarTrace(std::uint64_t seed) {
    Rng rng(seed);
    std::vector<VectorClock> clocks(kThreads, VectorClock(kThreads));
    VectorClock lock(kThreads);
    std::vector<int> remaining(kThreads, kCollections);
    int left = static_cast<int>(kThreads) * kCollections;
    while (left > 0) {
      const auto t = static_cast<ThreadId>(rng.next_below(kThreads));
      if (remaining[t] == 0) continue;
      if (rng.next_bool(0.3)) {
        const OpKind kind =
            rng.next_bool(0.5) ? OpKind::kRelease : OpKind::kAcquire;
        events.push_back(
            {t, kind, 0, calculate_vector_clock(t, clocks[t], lock)});
        continue;
      }
      AccessSet set;
      for (int a = 0; a < kAccesses; ++a) {
        set.merge(static_cast<VarId>(rng.next_below(kVars)),
                  rng.next_bool(0.5), false);
      }
      clocks[t][t] += 1;
      events.push_back({t, OpKind::kCollection,
                        table.append(t, std::move(set)), clocks[t]});
      --remaining[t];
      --left;
    }
  }
};

std::vector<VarId> racy_vars(const RaceReport& report) {
  std::vector<VarId> vars;
  for (const RaceFinding& f : report.findings()) vars.push_back(f.var);
  return vars;
}

std::vector<VarId> online_racy_vars(const ManyVarTrace& trace,
                                    std::size_t async_workers) {
  OnlineRaceDetector::Options options;
  options.async_workers = async_workers;
  OnlineRaceDetector detector(ManyVarTrace::kThreads, options);
  detector.attach(trace.table);
  for (const ManyVarTrace::Ev& ev : trace.events) {
    detector.on_event(ev.tid, ev.kind, ev.object, ev.clock);
  }
  detector.drain();
  EXPECT_EQ(detector.window_evictions(), 0u);
  return racy_vars(detector.report());
}

// The pooled detector's workers share one RaceReport; with more racy
// variables than hint slots, their adds meet on occupied slots. Inline,
// pooled and the offline BFS oracle must still name the same variables.
TEST(OnlineDetector, ManyRacyVarsAgreeInlinePooledAndOfflineBfs) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    const ManyVarTrace trace(seed);

    PosetBuilder builder(ManyVarTrace::kThreads);
    for (const ManyVarTrace::Ev& ev : trace.events) {
      builder.add_event_with_clock(ev.tid, ev.kind, ev.object, ev.clock);
    }
    const Poset poset = std::move(builder).build();
    RaceReport offline;
    ASSERT_FALSE(
        detect_races_offline_bfs(poset, trace.table, offline).out_of_memory);
    const std::vector<VarId> expected = racy_vars(offline);
    ASSERT_GT(expected.size(), RaceReport::kHints);
    // Not every variable races, so agreement is not trivial.
    ASSERT_LT(expected.size(), std::size_t{ManyVarTrace::kVars});

    EXPECT_EQ(online_racy_vars(trace, 0), expected);
    EXPECT_EQ(online_racy_vars(trace, 3), expected);
  }
}

// ---- the per-interval (box) form against the per-state oracle ----

// A random trace of collections over a small variable pool, with hand-offs
// of one lock (Algorithm 3 clocks) between them. Half the hand-offs are
// recorded as acquire events; the other half only join clocks, as a runtime
// that does not record sync events does, so a collection can sit directly
// in another collection's history (Gmin(e)[i] names a collection). Events
// are kept in generation order, a linearization of →p.
struct AccessTrace {
  struct Ev {
    ThreadId tid;
    OpKind kind;
    std::uint32_t object;
    VectorClock clock;
  };
  std::size_t threads;
  AccessTable table;
  std::vector<Ev> events;

  AccessTrace(std::size_t num_threads, int collections_per_thread,
              VarId vars, double sync_probability, std::uint64_t seed)
      : threads(num_threads), table(num_threads) {
    Rng rng(seed);
    std::vector<VectorClock> clocks(threads, VectorClock(threads));
    VectorClock lock(threads);
    std::vector<int> remaining(threads, collections_per_thread);
    int left = static_cast<int>(threads) * collections_per_thread;
    while (left > 0) {
      const auto t = static_cast<ThreadId>(rng.next_below(threads));
      if (remaining[t] == 0) continue;
      if (rng.next_bool(sync_probability)) {
        if (rng.next_bool(0.5)) {
          events.push_back({t, OpKind::kAcquire, 0,
                            calculate_vector_clock(t, clocks[t], lock)});
        } else {
          clocks[t].join(lock);
          lock = clocks[t];
        }
        continue;
      }
      AccessSet set;
      const int accesses = 1 + static_cast<int>(rng.next_below(3));
      for (int a = 0; a < accesses; ++a) {
        set.merge(static_cast<VarId>(rng.next_below(vars)),
                  rng.next_bool(0.5), rng.next_bool(0.1));
      }
      clocks[t][t] += 1;
      events.push_back({t, OpKind::kCollection,
                        table.append(t, std::move(set)), clocks[t]});
      --remaining[t];
      --left;
    }
  }

  Poset build_poset(std::vector<EventId>* order) const {
    PosetBuilder builder(threads);
    for (const Ev& ev : events) {
      order->push_back(
          builder.add_event_with_clock(ev.tid, ev.kind, ev.object, ev.clock));
    }
    return std::move(builder).build();
  }

  // The clock and accesses of event `id`, found by scanning the trace.
  const Ev& find(EventId id) const {
    for (const Ev& ev : events) {
      if (ev.tid == id.tid && ev.clock[ev.tid] == id.index) return ev;
    }
    ADD_FAILURE() << "no event (" << id.tid << ", " << id.index << ")";
    return events.front();
  }
};

// Records every add() as a (var, first, second) triple. Thread-safe, so the
// pooled driver's workers may share it.
class PairCollector {
 public:
  using Triple = std::tuple<VarId, std::uint64_t, std::uint64_t>;

  void add(VarId var, EventId first, EventId second) {
    MutexLock guard(mutex_);
    pairs_.insert({var, first.packed(), second.packed()});
  }

  std::set<Triple> pairs() const {
    MutexLock guard(mutex_);
    return pairs_;
  }

 private:
  mutable Mutex mutex_;
  std::set<Triple> pairs_ PM_GUARDED_BY(mutex_);
};

std::set<VarId> vars_of(const std::set<PairCollector::Triple>& pairs) {
  std::set<VarId> vars;
  for (const PairCollector::Triple& t : pairs) vars.insert(std::get<0>(t));
  return vars;
}

// Every witness names a concurrent pair of collections that conflict on
// the finding's variable.
void expect_valid_witnesses(const AccessTrace& trace,
                            const RaceReport& report) {
  for (const RaceFinding& f : report.findings()) {
    SCOPED_TRACE(f.var);
    const AccessTrace::Ev& a = trace.find(f.first);
    const AccessTrace::Ev& b = trace.find(f.second);
    ASSERT_EQ(a.kind, OpKind::kCollection);
    ASSERT_EQ(b.kind, OpKind::kCollection);
    EXPECT_FALSE(a.clock.leq(b.clock));
    EXPECT_FALSE(b.clock.leq(a.clock));
    bool conflict = false;
    for (const Access& x : trace.table.get(a.tid, a.object)) {
      for (const Access& y : trace.table.get(b.tid, b.object)) {
        conflict = conflict || (x.var == f.var && accesses_conflict(x, y));
      }
    }
    EXPECT_TRUE(conflict);
  }
}

// Over every interval of random posets (and two insertion orders each),
// the box form reports exactly the (var, first, second) triples the
// per-state form reports over all of the interval's states.
TEST(RaceBox, MatchesPerStateFormOnRandomPosets) {
  constexpr std::uint64_t kPosets = 64;
  std::size_t compared = 0;
  std::size_t nonempty = 0;
  for (std::uint64_t seed = 1; seed <= kPosets; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed * 7919);
    const AccessTrace trace(
        2 + rng.next_below(4), 2 + static_cast<int>(rng.next_below(4)),
        static_cast<VarId>(1 + rng.next_below(6)), 0.1 * rng.next_below(5),
        seed);
    std::vector<EventId> generated;
    const Poset poset = trace.build_poset(&generated);
    for (const std::vector<Interval>& intervals :
         {compute_intervals(poset, generated),
          compute_intervals(poset, TopoPolicy::kRandom, seed)}) {
      PairCollector per_state;
      PairCollector box;
      RaceReport report;
      std::atomic<std::uint64_t> evictions{0};
      for (const Interval& iv : intervals) {
        enumerate_box(EnumAlgorithm::kLexical, poset, iv.gmin, iv.gbnd,
                      [&](const Frontier& state) {
                        check_races(poset, trace.table, iv.event, state,
                                    per_state);
                      });
        check_races_in_box(poset, trace.table, iv.event, iv.gmin, iv.gbnd,
                           box, &evictions);
        check_races_in_box(poset, trace.table, iv.event, iv.gmin, iv.gbnd,
                           report);
      }
      EXPECT_EQ(box.pairs(), per_state.pairs());
      EXPECT_EQ(evictions.load(), 0u);
      const std::vector<VarId> vars = racy_vars(report);
      const std::set<VarId> expected_vars = vars_of(per_state.pairs());
      EXPECT_EQ(std::set<VarId>(vars.begin(), vars.end()), expected_vars);
      expect_valid_witnesses(trace, report);
      nonempty += per_state.pairs().empty() ? 0 : 1;
      ++compared;
    }
  }
  EXPECT_EQ(compared, 2 * kPosets);
  // Most interval partitions race, so the equality is not vacuous.
  EXPECT_GT(nonempty, compared / 2);
}

// Windowed streams, inline and on 3 pooled workers: one driver runs the
// per-state form on every state and the box form once per interval while
// the window reclaims; both record the same triples. OnlineRaceDetector
// (box form) on the same stream names the same variables, with valid
// witnesses. Inline runs reclaim deterministically (every interval is done
// before the next collect); pooled runs reclaim only when workers keep up.
TEST(RaceBox, MatchesPerStateFormOnWindowedPooledStream) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    const AccessTrace trace(4, 24, 8, 0.5, seed);
    std::set<PairCollector::Triple> expected;
    std::uint64_t states = 0;

    for (const std::size_t workers : {std::size_t{0}, std::size_t{3}}) {
      SCOPED_TRACE(workers);
      PairCollector per_state;
      PairCollector box;
      std::atomic<std::uint64_t> per_state_evictions{0};
      std::atomic<std::uint64_t> box_evictions{0};
      OnlineParamount::Options options;
      options.async_workers = workers;
      options.window_policy.gc_every = 4;
      options.visit_interval = [&](const OnlinePoset& poset, EventId owner,
                                   const Frontier& gmin,
                                   const Frontier& gbnd) {
        check_races_in_box(poset, trace.table, owner, gmin, gbnd, box,
                           &box_evictions);
      };
      OnlineParamount driver(
          trace.threads, options,
          [&](const OnlinePoset& poset, EventId owner, const Frontier& state) {
            check_races(poset, trace.table, owner, state, per_state,
                        &per_state_evictions);
          });
      for (const AccessTrace::Ev& ev : trace.events) {
        driver.submit(ev.tid, ev.kind, ev.object, ev.clock);
      }
      driver.drain();
      if (workers == 0) {
        EXPECT_GT(driver.poset().reclaimed_events(), 0u);
        expected = per_state.pairs();
        states = driver.states_enumerated();
        ASSERT_FALSE(expected.empty());
      }
      EXPECT_EQ(per_state_evictions.load(), 0u);
      EXPECT_EQ(box_evictions.load(), 0u);
      EXPECT_EQ(per_state.pairs(), expected);
      EXPECT_EQ(box.pairs(), expected);
      EXPECT_EQ(driver.states_enumerated(), states);

      OnlineRaceDetector::Options detector_options;
      detector_options.async_workers = workers;
      detector_options.window_policy.gc_every = 4;
      OnlineRaceDetector detector(trace.threads, detector_options);
      detector.attach(trace.table);
      for (const AccessTrace::Ev& ev : trace.events) {
        detector.on_event(ev.tid, ev.kind, ev.object, ev.clock);
      }
      detector.drain();
      EXPECT_EQ(detector.window_evictions(), 0u);
      EXPECT_EQ(detector.states_enumerated(), states);
      const std::vector<VarId> vars = racy_vars(detector.report());
      EXPECT_EQ(std::set<VarId>(vars.begin(), vars.end()), vars_of(expected));
      expect_valid_witnesses(trace, detector.report());
    }
  }
}

}  // namespace
}  // namespace paramount
