// Pluggable clock backends for Algorithm 3 (calculateVectorClock).
//
// Every clock producer in the repo — the synthetic stream, the scenario
// library, the trace generator, the online CLI driver — rolls the same state
// machine: per-thread clocks plus auxiliary timelines (locks, channels,
// barriers), advanced by three steps:
//   * local_step   — tick the thread's own component;
//   * sync_step    — tick, join an auxiliary timeline, and let the timeline
//                    adopt the result (Algorithm 3 proper);
//   * absorb_step  — tick and join another *thread's* clock without the
//                    partner adopting (fork/join edges).
// ClockEngine abstracts the representation behind those steps:
//   * kFlat  — VectorClock arrays, O(#threads) per join (the baseline);
//   * kTree  — TreeClock, joins/adoptions touch only unseen components.
//
// Every step still *materializes* the flat clock into `out`, because the
// event/wire/storage layer is deliberately backend-agnostic: frontiers,
// enumerators, the .pmt format, and ClockValidator all stay on VectorClock.
// That is what makes the backends bit-identical by construction — join is a
// componentwise max under every representation; only the bookkeeping that
// computes it changes. The oracle harnesses (tests/test_clock_backends.cpp)
// verify the identity event by event.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "poset/vector_clock.hpp"

namespace paramount {

enum class ClockBackend : std::uint8_t {
  kFlat = 0,
  kTree = 1,
};

const char* clock_backend_name(ClockBackend backend);
// Parses "flat" / "tree"; returns false on anything else.
bool parse_clock_backend(const std::string& name, ClockBackend* out);
// All backends, for differential harnesses and --help text.
const std::vector<ClockBackend>& all_clock_backends();

class ClockEngine {
 public:
  static std::unique_ptr<ClockEngine> make(ClockBackend backend,
                                           std::size_t num_threads);

  virtual ~ClockEngine() = default;

  virtual ClockBackend backend() const = 0;

  // Tick thread `tid` for a purely local event; materialize its clock.
  virtual void local_step(ThreadId tid, VectorClock* out) = 0;

  // Algorithm 3 against auxiliary timeline `timeline` (created on first
  // use): tick, join, timeline adopts the result.
  virtual void sync_step(ThreadId tid, std::size_t timeline,
                         VectorClock* out) = 0;

  // Fork/join edge: tick `dst` and join thread `src`'s clock (no adoption).
  virtual void absorb_step(ThreadId dst, ThreadId src, VectorClock* out) = 0;

  // Materialize thread `tid`'s current clock without advancing it.
  virtual void snapshot(ThreadId tid, VectorClock* out) const = 0;

  // Clock components touched by joins/copies so far — the bench's measure of
  // representation work (a flat sync_step always touches O(#threads)).
  virtual std::uint64_t join_work() const = 0;

  std::size_t num_threads() const { return num_threads_; }

 protected:
  explicit ClockEngine(std::size_t num_threads) : num_threads_(num_threads) {}

  std::size_t num_threads_;
};

}  // namespace paramount
