#include "core/online_paramount.hpp"

namespace paramount {

OnlineParamount::OnlineParamount(std::size_t num_threads, Options options,
                                 IntervalStateVisitor visit)
    : poset_(num_threads),
      options_(options),
      visit_(std::move(visit)),
      slots_(options.async_workers > 0 && options.window_policy.enabled()
                 ? kInFlightIntervalsPerWorker * options.async_workers
                 : 0) {
  PM_CHECK(visit_ != nullptr);
  obs::Telemetry* const tel = options_.telemetry;
  PM_CHECK_MSG(tel == nullptr || tel->num_shards() >=
                                     num_threads + options_.async_workers,
               "online telemetry needs num_threads + async_workers shards");
  if (options_.async_workers > 0) {
    // Pool workers report on shards above the program threads' so every
    // shard keeps a single writer (see Options::telemetry).
    pool_ = std::make_unique<ThreadPool>(options_.async_workers, tel,
                                         /*shard_base=*/num_threads);
  }
}

OnlineParamount::~OnlineParamount() {
  if (pool_ != nullptr) pool_->wait_idle();
}

EventId OnlineParamount::submit(ThreadId tid, OpKind kind,
                                std::uint32_t object, VectorClock clock) {
  // Windowed pooled mode: take an in-flight slot first, waiting while the
  // cap is reached until a finished interval releases one (a no-op when
  // uncapped). The wait comes before insert(), so it holds no poset lock.
  // It must never run on a pool worker — the intervals it waits for could
  // then never finish — which is one reason a visitor or interval_done must
  // not call back into the driver.
  slots_.acquire(1);
  obs::Telemetry* const tel = options_.telemetry;
  const std::uint64_t insert_ns =
      tel != nullptr ? tel->tracer().now_ns() : 0;
  // With a window policy the interval's Gmin is pinned atomically with the
  // insert; the pin travels to enumerate_interval via ins.pin_slot and is
  // released when the enumeration finishes.
  const OnlinePoset::Inserted ins =
      poset_.insert(tid, kind, object, std::move(clock),
                    /*pin=*/options_.window_policy.enabled());
  if (tel != nullptr) {
    // The insert is Algorithm 4's atomic block: it appends to →p and
    // snapshots the maximal frontier (Gbnd).
    const std::uint64_t done_ns = tel->tracer().now_ns();
    tel->metrics().add(tel->claims, tid);
    tel->metrics().observe(tel->gbnd_ns, tid, done_ns - insert_ns);
    tel->tracer().record(tid, "gbnd_snapshot", "online", insert_ns,
                         done_ns - insert_ns);
  }
  if (pool_ != nullptr) {
    pool_->submit([this, ins] { enumerate_interval(ins); });
  } else {
    enumerate_interval(ins);
  }
  maybe_collect();
  return ins.id;
}

void OnlineParamount::drain() {
  if (pool_ != nullptr) pool_->wait_idle();
}

OnlinePoset::CollectStats OnlineParamount::collect() {
  const OnlinePoset::CollectStats stats = poset_.collect();
  obs::Telemetry* const tel = options_.telemetry;
  if (tel != nullptr) {
    // Poset-wide gauges: gauge totals sum over shards, so write shard 0 only.
    // Concurrent collectors race on the same cell; the store is a relaxed
    // atomic and both values are fresh, so last-writer-wins is fine.
    tel->metrics().set(tel->poset_resident_bytes, 0, stats.resident_bytes);
    tel->metrics().set(tel->poset_reclaimed_events, 0,
                       poset_.reclaimed_events());
    // The store's gauges refresh on the same cadence as the poset's: racing
    // collectors are the same benign last-writer-wins as above.
    if (options_.store != nullptr) options_.store->publish_stats(tel);
  }
  return stats;
}

void OnlineParamount::maybe_collect() {
  const WindowPolicy& wp = options_.window_policy;
  if (!wp.enabled()) return;
  bool due = false;
  if (wp.gc_every > 0) {
    // relaxed: GC cadence heuristic — racing submitters may slightly over-
    // or under-shoot gc_every, which shifts *when* a pass runs, never
    // whether reclamation is correct (collect() re-derives the watermark).
    const std::uint64_t n =
        inserts_since_gc_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (n >= wp.gc_every) {
      inserts_since_gc_.store(0, std::memory_order_relaxed);
      due = true;
    }
  }
  if (!due && wp.window_bytes > 0 && poset_.heap_bytes() > wp.window_bytes) {
    due = true;
  }
  if (due) collect();
}

void OnlineParamount::enumerate_interval(const OnlinePoset::Inserted& ins) {
  // Adopt the pin taken at insert time (inert without a window policy):
  // while this guard lives, collect() cannot advance the watermark past
  // ins.gmin, so every index inside [Gmin, Gbnd] stays resident.
  OnlinePoset::EnumGuard guard(&poset_, ins.pin_slot);
  obs::Telemetry* const tel = options_.telemetry;
  // Inline mode runs on the submitting program thread (shard = its tid);
  // pooled mode runs on a pool worker (shards above the program threads).
  std::size_t shard = ins.id.tid;
  if (tel != nullptr && pool_ != nullptr) {
    const std::size_t worker = ThreadPool::current_worker_index();
    PM_DCHECK(worker != ThreadPool::npos);
    shard = poset_.num_threads() + worker;
  }
  const std::uint64_t start_ns = tel != nullptr ? tel->tracer().now_ns() : 0;
  std::uint64_t states = 0;
  // relaxed: advisory latch, see store_full(). Once the shared store filled,
  // further intervals would be incomplete; skip straight to the pin release
  // and completion callback so backpressure budgets stay balanced.
  if (!store_full_.load(std::memory_order_relaxed)) {
    // The empty state {0,…,0} belongs to the interval of the first event in
    // the insertion order →p (Figure 6a).
    if (ins.first) {
      visit_(poset_, ins.id, poset_.empty_frontier());
      ++states;
    }
    // Pool workers must never let an exception escape (the pool would
    // std::terminate), so the store's typed kFull result is latched here
    // and surfaced by the owner via store_full().
    try {
      const EnumStats stats = enumerate_box(
          options_.subroutine, poset_, ins.gmin, ins.gbnd,
          [&](const Frontier& state) { visit_(poset_, ins.id, state); },
          /*meter=*/nullptr, options_.store);
      states += stats.states;
    } catch (const StateStoreFull&) {
      // relaxed: see store_full().
      store_full_.store(true, std::memory_order_relaxed);
    }
  }
  // relaxed: monotone statistics counters; the final reads happen after
  // drain()/destruction, which order all contributions.
  states_.fetch_add(states, std::memory_order_relaxed);
  intervals_.fetch_add(1, std::memory_order_relaxed);
  if (tel != nullptr) {
    const std::uint64_t end_ns = tel->tracer().now_ns();
    tel->tracer().record(shard, "interval", "enumerate", start_ns,
                         end_ns - start_ns, "states", states);
    tel->metrics().add(tel->states, shard, states);
    tel->metrics().add(tel->intervals, shard);
    tel->metrics().observe(tel->interval_states, shard, states);
    tel->metrics().observe(tel->interval_ns, shard, end_ns - start_ns);
  }
  // Release the pin before announcing completion: once the callback fires,
  // the interval no longer holds any storage against reclamation, so a
  // collect() triggered by the listener sees the watermark it expects.
  guard.release();
  // The pin is gone, so the slot may go too: in-flight pins never exceed
  // the cap. This wakes a submitter waiting at the cap.
  slots_.release(1);
  if (options_.interval_done) options_.interval_done(ins.id);
}

}  // namespace paramount
