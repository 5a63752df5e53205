#include "poset/clock_backend.hpp"

#include "poset/tree_clock.hpp"
#include "util/check.hpp"

namespace paramount {

const char* clock_backend_name(ClockBackend backend) {
  switch (backend) {
    case ClockBackend::kFlat:
      return "flat";
    case ClockBackend::kTree:
      return "tree";
  }
  return "?";
}

bool parse_clock_backend(const std::string& name, ClockBackend* out) {
  for (ClockBackend b : all_clock_backends()) {
    if (name == clock_backend_name(b)) {
      *out = b;
      return true;
    }
  }
  return false;
}

const std::vector<ClockBackend>& all_clock_backends() {
  static const std::vector<ClockBackend> kAll = {
      ClockBackend::kFlat, ClockBackend::kTree};
  return kAll;
}

namespace {

// The baseline: exactly the VectorClock arithmetic every producer used
// before backends existed (calculate_vector_clock and friends).
class FlatClockEngine final : public ClockEngine {
 public:
  explicit FlatClockEngine(std::size_t num_threads)
      : ClockEngine(num_threads),
        thread_clocks_(num_threads, VectorClock(num_threads)) {}

  ClockBackend backend() const override { return ClockBackend::kFlat; }

  void local_step(ThreadId tid, VectorClock* out) override {
    VectorClock& vc = thread_clocks_[tid];
    vc[tid] += 1;
    *out = vc;
  }

  void sync_step(ThreadId tid, std::size_t timeline,
                 VectorClock* out) override {
    *out = calculate_vector_clock(tid, thread_clocks_[tid],
                                  timeline_clock(timeline));
    work_ += 2 * num_threads_;  // join + adopt-copy (materialization excluded)
  }

  void absorb_step(ThreadId dst, ThreadId src, VectorClock* out) override {
    VectorClock& vc = thread_clocks_[dst];
    vc[dst] += 1;
    vc.join(thread_clocks_[src]);
    *out = vc;
    work_ += num_threads_;
  }

  void snapshot(ThreadId tid, VectorClock* out) const override {
    *out = thread_clocks_[tid];
  }

  std::uint64_t join_work() const override { return work_; }

 private:
  VectorClock& timeline_clock(std::size_t timeline) {
    if (timeline >= timelines_.size()) {
      timelines_.resize(timeline + 1, VectorClock(num_threads_));
    }
    return timelines_[timeline];
  }

  std::vector<VectorClock> thread_clocks_;
  std::vector<VectorClock> timelines_;
  std::uint64_t work_ = 0;
};

// Tree clocks: joins and adoptions visit only the components the receiver
// has not observed yet (see tree_clock.hpp). Materialization into `out` is
// still O(#threads) — the wire/event layer wants flat clocks — but the
// representation work per sync drops from O(#threads) to O(changed), which
// is what bench_clocks measures via join_work().
class TreeClockEngine final : public ClockEngine {
 public:
  explicit TreeClockEngine(std::size_t num_threads)
      : ClockEngine(num_threads),
        flat_cache_(num_threads, VectorClock(num_threads)) {
    thread_clocks_.reserve(num_threads);
    for (std::size_t t = 0; t < num_threads; ++t) {
      thread_clocks_.emplace_back(num_threads, static_cast<ThreadId>(t));
    }
  }

  ClockBackend backend() const override { return ClockBackend::kTree; }

  void local_step(ThreadId tid, VectorClock* out) override {
    TreeClock& tc = thread_clocks_[tid];
    tc.increment();
    flat_cache_[tid][tid] = tc.get(tid);
    *out = flat_cache_[tid];
  }

  void sync_step(ThreadId tid, std::size_t timeline,
                 VectorClock* out) override {
    TreeClock& tc = thread_clocks_[tid];
    TreeClock& tl = timeline_clock(timeline);
    tc.increment();
    tc.join(tl);
    refresh_cache(tid, tc);
    tl.adopt(tc);
    *out = flat_cache_[tid];
  }

  void absorb_step(ThreadId dst, ThreadId src, VectorClock* out) override {
    TreeClock& tc = thread_clocks_[dst];
    tc.increment();
    tc.join(thread_clocks_[src]);
    refresh_cache(dst, tc);
    *out = flat_cache_[dst];
  }

  void snapshot(ThreadId tid, VectorClock* out) const override {
    *out = flat_cache_[tid];
  }

  std::uint64_t join_work() const override {
    std::uint64_t total = 0;
    for (const TreeClock& tc : thread_clocks_) total += tc.nodes_visited();
    for (const TreeClock& tl : timelines_) total += tl.nodes_visited();
    return total;
  }

 private:
  TreeClock& timeline_clock(std::size_t timeline) {
    while (timeline >= timelines_.size()) {
      timelines_.emplace_back(num_threads_, TreeClock::kNull);
    }
    return timelines_[timeline];
  }

  // Patches tid's materialized flat view with the components the join just
  // changed (plus the tick), so producing an event clock is one memcpy
  // instead of an O(#threads) strided re-read of the tree.
  void refresh_cache(ThreadId tid, const TreeClock& tc) {
    VectorClock& cache = flat_cache_[tid];
    if (tc.last_join_was_dense()) {
      tc.write_to(&cache);  // per-component patching has no per-node list
      return;
    }
    cache[tid] = tc.get(tid);
    for (const TreeClock::Updated& up : tc.last_join_updated()) {
      cache[up.tid] = tc.get(up.tid);
    }
  }

  std::vector<TreeClock> thread_clocks_;
  std::vector<TreeClock> timelines_;
  // flat_cache_[t] always equals thread_clocks_[t] materialized.
  std::vector<VectorClock> flat_cache_;
};

}  // namespace

std::unique_ptr<ClockEngine> ClockEngine::make(ClockBackend backend,
                                               std::size_t num_threads) {
  switch (backend) {
    case ClockBackend::kFlat:
      return std::make_unique<FlatClockEngine>(num_threads);
    case ClockBackend::kTree:
      return std::make_unique<TreeClockEngine>(num_threads);
  }
  PM_CHECK(false && "unknown clock backend");
  return nullptr;
}

}  // namespace paramount
