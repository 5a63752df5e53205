// Sliding-window reclamation for the online poset: watermark computation,
// EnumGuard pinning, GC-on/GC-off equivalence, bounded memory under long
// streams, and the detector's eviction accounting.
#include <gtest/gtest.h>

#include <atomic>
#include <iostream>
#include <thread>
#include <vector>

#include "core/online_paramount.hpp"
#include "detect/race_predicate.hpp"
#include "poset/online_poset.hpp"
#include "runtime/access.hpp"
#include "test_helpers.hpp"
#include "util/sync.hpp"
#include "workloads/event_stream.hpp"

namespace paramount {
namespace {

using testing::all_distinct;
using testing::as_set;
using testing::key_of;
using testing::Key;

// Drives `total_events` of a deterministic synthetic stream through an
// OnlineParamount with the given options; returns every visited state.
struct StreamRun {
  std::vector<Key> states;
  std::size_t peak_poset_bytes = 0;
  std::size_t final_poset_bytes = 0;
};

StreamRun run_stream(SyntheticEventStream::Params params,
                     std::uint64_t total_events,
                     OnlineParamount::Options options) {
  StreamRun run;
  Mutex mutex;
  OnlineParamount driver(
      params.num_threads, options,
      [&](const OnlinePoset&, EventId, const Frontier& f) {
        MutexLock guard(mutex);
        run.states.push_back(key_of(f));
      });
  SyntheticEventStream stream(params);
  for (std::uint64_t i = 0; i < total_events; ++i) {
    SyntheticEventStream::StreamEvent ev = stream.next();
    driver.submit(ev.tid, ev.kind, ev.object, std::move(ev.clock));
    if ((i & 255) == 0) {
      run.peak_poset_bytes =
          std::max(run.peak_poset_bytes, driver.poset().heap_bytes());
    }
  }
  driver.drain();
  run.peak_poset_bytes =
      std::max(run.peak_poset_bytes, driver.poset().heap_bytes());
  // Like the CLI: one final collect once the stream has drained, so
  // final_poset_bytes reports the post-GC plateau rather than whatever was
  // resident when the last periodic collect happened to fire.
  if (options.window_policy.enabled()) driver.collect();
  run.final_poset_bytes = driver.poset().heap_bytes();
  return run;
}

TEST(WindowGc, CollectAdvancesToClockFloorMinusOne) {
  OnlinePoset poset(2);
  poset.insert(0, OpKind::kInternal, 0, VectorClock{1, 0});
  poset.insert(1, OpKind::kInternal, 0, VectorClock{0, 1});
  poset.insert(0, OpKind::kInternal, 0, VectorClock{2, 1});
  poset.insert(1, OpKind::kInternal, 0, VectorClock{2, 2});

  // Clock floor = min({2,1}, {2,2}) = {2,1}; index w[j] itself stays live.
  const auto stats = poset.collect();
  EXPECT_EQ(stats.reclaimed_events, 1u);
  EXPECT_EQ(poset.window_base(0), 1u);
  EXPECT_EQ(poset.window_base(1), 0u);
  EXPECT_EQ(poset.first_live_index(0), 2u);
  EXPECT_FALSE(poset.is_live(0, 1));
  EXPECT_TRUE(poset.is_live(0, 2));
  EXPECT_EQ(poset.reclaimed_events(), 1u);
  // Live reads still work, and published counts are unaffected.
  EXPECT_EQ(key_of(poset.vc(0, 2)), (Key{2, 1}));
  EXPECT_EQ(poset.num_events(0), 2u);

  // The watermark is monotone: a second pass with no new events is a no-op.
  EXPECT_EQ(poset.collect().reclaimed_events, 0u);
}

TEST(WindowGc, ThreadWithNoEventsPinsWatermarkAtZero) {
  OnlinePoset poset(2);
  for (EventIndex i = 1; i <= 100; ++i) {
    poset.insert(0, OpKind::kInternal, 0, VectorClock{i, 0});
  }
  // Thread 1's first event could still reference anything already published.
  const auto stats = poset.collect();
  EXPECT_EQ(stats.reclaimed_events, 0u);
  EXPECT_EQ(poset.window_base(0), 0u);
}

TEST(WindowGc, EnumGuardPinsAndReleaseUnpins) {
  OnlinePoset poset(2);
  // Tightly synchronized pair of threads: the clock floor alone would let
  // collect() reclaim almost everything.
  for (EventIndex i = 1; i <= 64; ++i) {
    poset.insert(0, OpKind::kInternal, 0,
                 VectorClock{i, static_cast<EventIndex>(i - 1)});
    poset.insert(1, OpKind::kInternal, 0, VectorClock{i, i});
  }

  // A stalled in-flight interval with Gmin {3,2} pins the watermark there.
  OnlinePoset::EnumGuard guard = poset.pin_interval(Frontier{3, 2});
  EXPECT_EQ(poset.outstanding_pins(), 1u);
  poset.collect();
  EXPECT_EQ(poset.window_base(0), 2u);
  EXPECT_EQ(poset.window_base(1), 1u);
  EXPECT_TRUE(poset.is_live(0, 3));
  EXPECT_TRUE(poset.is_live(1, 2));

  guard.release();
  EXPECT_EQ(poset.outstanding_pins(), 0u);
  const auto stats = poset.collect();
  EXPECT_GT(stats.reclaimed_events, 0u);
  EXPECT_GT(poset.window_base(0), 2u);
}

TEST(WindowGc, InsertWithPinIsAdoptedByGuard) {
  OnlinePoset poset(1);
  const auto plain = poset.insert(0, OpKind::kInternal, 0, VectorClock{1},
                                  /*pin=*/false);
  EXPECT_EQ(plain.pin_slot, OnlinePoset::kNoPin);

  const auto pinned = poset.insert(0, OpKind::kInternal, 0, VectorClock{2},
                                   /*pin=*/true);
  ASSERT_NE(pinned.pin_slot, OnlinePoset::kNoPin);
  EXPECT_EQ(poset.outstanding_pins(), 1u);
  {
    OnlinePoset::EnumGuard guard(&poset, pinned.pin_slot);
    EXPECT_TRUE(guard.active());
    // The pin holds the watermark at the pinned Gmin {2} => base 1, even
    // though the clock floor would allow base 2.
    poset.insert(0, OpKind::kInternal, 0, VectorClock{3});
    poset.collect();
    EXPECT_EQ(poset.window_base(0), 1u);
  }
  EXPECT_EQ(poset.outstanding_pins(), 0u);
  poset.collect();
  EXPECT_EQ(poset.window_base(0), 2u);
}

TEST(WindowGc, CollectReturnsStorageToTheAllocator) {
  OnlinePoset poset(1);
  for (EventIndex i = 1; i <= 20000; ++i) {
    poset.insert(0, OpKind::kInternal, 0, VectorClock{i});
  }
  const std::size_t before = poset.heap_bytes();
  const auto stats = poset.collect();
  EXPECT_EQ(stats.reclaimed_events, 19999u);
  EXPECT_LT(stats.resident_bytes, before / 2);
  EXPECT_EQ(poset.heap_bytes(), stats.resident_bytes);
}

#ifndef NDEBUG
TEST(WindowGcDeathTest, ReadingReclaimedIndexAsserts) {
  OnlinePoset poset(1);
  for (EventIndex i = 1; i <= 100; ++i) {
    poset.insert(0, OpKind::kInternal, 0, VectorClock{i});
  }
  poset.collect();
  ASSERT_FALSE(poset.is_live(0, 1));
  EXPECT_DEATH(poset.vc(0, 1), "");
}
#endif

// GC-on must enumerate exactly the states GC-off enumerates, across seeds,
// collect cadences, and inline/pooled execution.
TEST(WindowGc, GcOnMatchesGcOffOracle) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SyntheticEventStream::Params params;
    params.num_threads = 4;
    params.num_locks = 2;
    params.sync_probability = 0.7;
    params.seed = seed;

    const StreamRun oracle = run_stream(params, 2000, {});
    EXPECT_TRUE(all_distinct(oracle.states));

    for (const std::size_t workers : {std::size_t{0}, std::size_t{3}}) {
      for (const std::uint64_t gc_every : {std::uint64_t{1}, std::uint64_t{64}}) {
        OnlineParamount::Options options;
        options.async_workers = workers;
        options.window_policy.gc_every = gc_every;
        const StreamRun run = run_stream(params, 2000, options);
        EXPECT_EQ(run.states.size(), oracle.states.size())
            << "seed " << seed << " workers " << workers << " gc_every "
            << gc_every;
        EXPECT_EQ(as_set(run.states), as_set(oracle.states))
            << "seed " << seed << " workers " << workers << " gc_every "
            << gc_every;
      }
    }
  }
}

// The bounded-memory claim: >= 100k inserts with concurrent pooled
// enumeration stay on a resident plateau far below the unwindowed run
// (which the ASan job additionally checks for use-after-reclaim).
TEST(WindowGc, StreamingHeapStaysBoundedAcross100kInserts) {
  SyntheticEventStream::Params params;
  params.num_threads = 4;
  params.num_locks = 2;
  params.sync_probability = 0.8;
  params.seed = 9;

  constexpr std::uint64_t kEvents = 200000;
  OnlineParamount::Options windowed;
  windowed.async_workers = 3;
  windowed.window_policy.gc_every = 512;
  const StreamRun gc_run = run_stream(params, kEvents, windowed);

  OnlineParamount::Options unwindowed;
  unwindowed.async_workers = 3;
  const StreamRun ref_run = run_stream(params, kEvents, unwindowed);

  EXPECT_EQ(gc_run.states.size(), ref_run.states.size());
  std::cout << "windowed peak=" << gc_run.peak_poset_bytes
            << " windowed final=" << gc_run.final_poset_bytes
            << " unwindowed final=" << ref_run.final_poset_bytes << "\n";
  // The unwindowed poset keeps all 200k events resident forever. Queued
  // intervals pin the watermark, but a windowed pooled driver keeps at most
  // in_flight_cap() of them in flight (submit() waits at the cap), so the
  // windowed peak follows the cap and the collect cadence, not the worker
  // backlog: it stays well below the linear footprint whatever the
  // schedule, and the post-drain plateau is just the partially covered tail
  // segments.
  EXPECT_LT(gc_run.peak_poset_bytes * 2, ref_run.final_poset_bytes);
  EXPECT_LT(gc_run.final_poset_bytes * 6, ref_run.final_poset_bytes);
}

// The in-flight cap that makes the window's bound hold whatever the queue
// does. The visitor holds every worker until the producer has waited at the
// cap, so the producer outruns the workers in every schedule: each interval
// visits at least its Gmin, so no interval can finish early, and exactly
// in_flight_cap() pins are outstanding when the producer stalls. After
// every submit() the pins stay at or below the cap, the waiting submit()
// resumes once the workers go on (the one-worker case: a single worker must
// wake it), and the states equal the GC-off oracle.
TEST(WindowGc, PooledSubmitWaitsAtTheInFlightCap) {
  SyntheticEventStream::Params params;
  params.num_threads = 4;
  params.num_locks = 2;
  params.sync_probability = 0.7;
  params.seed = 5;

  for (const std::size_t workers : {std::size_t{1}, std::size_t{3}}) {
    const std::size_t cap =
        OnlineParamount::kInFlightIntervalsPerWorker * workers;
    const std::uint64_t total_events = 2 * cap;
    const StreamRun oracle = run_stream(params, total_events, {});

    OnlineParamount::Options options;
    options.async_workers = workers;
    options.window_policy.gc_every = 64;
    Mutex mutex;
    CondVar opened;
    bool open = false;
    std::vector<Key> states;
    OnlineParamount driver(
        params.num_threads, options,
        [&](const OnlinePoset&, EventId, const Frontier& f) {
          MutexLock guard(mutex);
          while (!open) opened.wait(mutex);
          states.push_back(key_of(f));
        });
    ASSERT_EQ(driver.in_flight_cap(), cap);

    // Opens at the first stall — or after the last submit(), so a driver
    // that never waits fails the assertions below instead of hanging.
    std::atomic<bool> submitted{false};
    std::thread opener([&] {
      while (driver.admission_stalls() == 0 && !submitted.load()) {
        std::this_thread::yield();
      }
      MutexLock guard(mutex);
      open = true;
      opened.notify_all();
    });
    SyntheticEventStream stream(params);
    std::size_t max_pins = 0;
    for (std::uint64_t i = 0; i < total_events; ++i) {
      SyntheticEventStream::StreamEvent ev = stream.next();
      driver.submit(ev.tid, ev.kind, ev.object, std::move(ev.clock));
      const std::size_t pins = driver.poset().outstanding_pins();
      EXPECT_LE(pins, cap) << "workers " << workers << " event " << i;
      max_pins = std::max(max_pins, pins);
    }
    submitted.store(true);
    opener.join();
    driver.drain();

    EXPECT_EQ(max_pins, cap) << "workers " << workers;
    EXPECT_GT(driver.admission_stalls(), 0u) << "workers " << workers;
    EXPECT_EQ(driver.poset().outstanding_pins(), 0u);
    EXPECT_GT(driver.poset().reclaimed_events(), 0u);
    EXPECT_EQ(states.size(), oracle.states.size()) << "workers " << workers;
    EXPECT_EQ(as_set(states), as_set(oracle.states)) << "workers " << workers;
  }
}

// Unwindowed and inline drivers keep submission wait-free: no cap.
TEST(WindowGc, InFlightCapOnlyForWindowedPooledDrivers) {
  const auto cap_of = [](std::size_t workers, std::uint64_t gc_every) {
    OnlineParamount::Options options;
    options.async_workers = workers;
    options.window_policy.gc_every = gc_every;
    OnlineParamount driver(2, options,
                           [](const OnlinePoset&, EventId, const Frontier&) {});
    return driver.in_flight_cap();
  };
  EXPECT_EQ(cap_of(0, 0), 0u);
  EXPECT_EQ(cap_of(0, 64), 0u);
  EXPECT_EQ(cap_of(2, 0), 0u);
  EXPECT_EQ(cap_of(2, 64), 2 * OnlineParamount::kInFlightIntervalsPerWorker);
}

// collect() hammered from a dedicated thread while producers insert and
// pooled workers enumerate: pins must keep every in-flight box resident
// (TSan covers the ordering, the state count covers the semantics).
TEST(WindowGc, ConcurrentCollectEnumerateStress) {
  SyntheticEventStream::Params params;
  params.num_threads = 4;
  params.num_locks = 2;
  params.sync_probability = 0.7;
  params.seed = 21;
  const std::uint64_t total_events = 8000;

  const StreamRun oracle = run_stream(params, total_events, {});

  OnlineParamount::Options options;
  options.async_workers = 2;
  options.window_policy.gc_every = 128;
  std::atomic<std::uint64_t> states{0};
  OnlineParamount driver(
      params.num_threads, options,
      [&](const OnlinePoset&, EventId, const Frontier&) {
        // relaxed: state tally, read after drain() below.
        states.fetch_add(1, std::memory_order_relaxed);
      });

  // The stream is sequential, and each event's clock may reference the event
  // popped just before it, so submission must stay under the stream lock
  // (popping t0#k+1 and submitting it before t0#k lands would violate the
  // insert-order contract). The producers still vary the timing between
  // inserts; the concurrency under test — pooled enumeration racing the
  // collector — lives on the pool workers and the collector thread.
  Mutex stream_mutex;
  SyntheticEventStream stream(params);
  std::uint64_t produced = 0;
  std::atomic<bool> done{false};

  std::vector<std::thread> producers;
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&] {
      while (true) {
        MutexLock guard(stream_mutex);
        if (produced == total_events) return;
        ++produced;
        SyntheticEventStream::StreamEvent ev = stream.next();
        driver.submit(ev.tid, ev.kind, ev.object, std::move(ev.clock));
      }
    });
  }
  std::thread collector([&] {
    // relaxed: advisory stop flag; the collector's work is self-contained.
    while (!done.load(std::memory_order_relaxed)) {
      driver.collect();
      std::this_thread::yield();
    }
  });

  for (std::thread& p : producers) p.join();
  driver.drain();
  // relaxed: advisory stop flag, see the collector loop.
  done.store(true, std::memory_order_relaxed);
  collector.join();

  EXPECT_EQ(states.load(), oracle.states.size());
  EXPECT_GT(driver.poset().reclaimed_events(), 0u);
}

TEST(WindowGc, DetectorCountsWindowEvictions) {
  OnlinePoset poset(2);
  AccessTable table(2);
  RaceReport report;
  std::atomic<std::uint64_t> evictions{0};

  AccessSet writes;
  writes.merge(/*var=*/7, /*is_write=*/true, /*is_init=*/false);
  table.append(0, writes);
  table.append(1, writes);

  const auto e0 =
      poset.insert(0, OpKind::kCollection, 0, VectorClock{1, 0});
  const auto e1 =
      poset.insert(1, OpKind::kCollection, 0, VectorClock{0, 1});
  const Frontier both{1, 1};

  // Sanity: with everything resident the racy pair is reported.
  check_races(poset, table, e1.id, both, report, &evictions);
  EXPECT_EQ(report.num_racy_vars(), 1u);
  EXPECT_EQ(evictions.load(), 0u);

  // Force e0 out of the window (no pins, clock floors past it), then
  // re-check the same state: the pair is dropped and counted, not read.
  poset.insert(0, OpKind::kInternal, 0, VectorClock{2, 1});
  poset.insert(1, OpKind::kInternal, 0, VectorClock{2, 2});
  poset.collect();
  ASSERT_FALSE(poset.is_live(0, 1));

  RaceReport after;
  check_races(poset, table, e1.id, both, after, &evictions);
  EXPECT_EQ(after.num_racy_vars(), 0u);
  EXPECT_EQ(evictions.load(), 1u);

  // An evicted interval owner is itself dropped and counted.
  check_races(poset, table, e0.id, both, after, &evictions);
  EXPECT_EQ(evictions.load(), 2u);
}

}  // namespace
}  // namespace paramount
