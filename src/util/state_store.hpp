// Lock-free shared state store: interns canonical Frontier states to stable
// 32-bit ids, in the style of ltsmin's dbs-ll.c (the lockless hash table
// powering its multi-core model checker).
//
// Layout — one fixed table of 64-bit "memoized hash" words plus a separate
// payload arena, so the probe loop touches one cache line per slot and the
// (wider) frontier payload is read only on a fingerprint match:
//
//   word  = [63: write bit][62..32: 31-bit fingerprint][31..0: id + 1]
//   slot empty  ⇔ word == 0
//   arena[id]   = the state's num_threads EventIndex components, allocated
//                 in fixed-size chunks as ids grow (dense in id order), so
//                 resident bytes track *interned* states, not capacity.
//
// Insert protocol (find_or_put), linear probing from hash(state):
//   1. empty slot → CAS(0 → fp | kWriting). The winner allocates the next
//      id, writes the payload into the arena, then release-stores
//      fp | (id+1) — clearing the write bit publishes the payload.
//   2. fingerprint match → spin until the write bit clears (acquire), then
//      compare payloads: equal → return the published id (inserted=false);
//      different → a fingerprint collision, keep probing.
//   3. fingerprint mismatch → next slot.
// Exactly-once: slots never empty again and both racers probe the same
// sequence, so every thread interning state S lands on the one slot whose
// CAS winner wrote S — exactly one caller ever sees inserted=true per state.
//
// Capacity is fixed at construction (no resize — concurrent readers hold raw
// ids). Exhaustion is a *typed* result, never an abort: a full probe ring or
// an exhausted id space yields Status::kFull (the slot claimed by a loser of
// the id race is published as a dead word that matches nothing). Enumerators
// translate kFull into the StateStoreFull exception; the service maps that
// to a typed Error frame.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>

#include "poset/vector_clock.hpp"
#include "util/check.hpp"

namespace paramount::obs {
class Telemetry;
}  // namespace paramount::obs

namespace paramount {

// Thrown by the store-backed enumerators when find_or_put reports kFull;
// carries the sizing the caller needs for a useful error message. The store
// itself never throws on exhaustion (its result is typed).
class StateStoreFull : public std::runtime_error {
 public:
  StateStoreFull(std::size_t interned, std::size_t capacity)
      : std::runtime_error("state store is full"),
        interned_(interned),
        capacity_(capacity) {}

  std::size_t interned() const { return interned_; }
  std::size_t capacity() const { return capacity_; }

 private:
  std::size_t interned_;
  std::size_t capacity_;
};

class StateStore {
 public:
  using StateId = std::uint32_t;
  static constexpr StateId kInvalidId = 0xffffffffu;

  enum class Status : std::uint8_t {
    kOk,    // id is valid
    kFull,  // table or id space exhausted; nothing was interned
  };

  struct InsertResult {
    StateId id = kInvalidId;
    bool inserted = false;  // true for exactly one caller per distinct state
    Status status = Status::kOk;
  };

  // Hash seam: the production table uses Frontier::hash(); the collision
  // fuzz tests inject degenerate functions (equal hashes, distinct payloads)
  // to force fingerprint collisions and long probe chains.
  using HashFn = std::uint64_t (*)(const Frontier&);

  // log2 probe-length histogram: bucket 0 = hit on the home slot, bucket
  // b >= 1 = final probe distance in [2^(b-1), 2^b).
  static constexpr std::size_t kProbeBuckets = 32;

  struct Stats {
    std::size_t size = 0;            // states interned
    std::size_t capacity = 0;        // max states (id space)
    std::size_t slots = 0;           // probe ring length (power of two)
    std::size_t resident_bytes = 0;  // table + allocated arena chunks
    std::uint64_t full_rejections = 0;
    std::uint64_t probe_count = 0;  // find_or_put calls recorded
    std::uint64_t probe_sum = 0;    // summed final probe distances
    std::array<std::uint64_t, kProbeBuckets> probe_hist{};
  };

  // A store for frontiers of exactly `num_threads` components whose table
  // and arena together stay within ~`budget_bytes`. The slot ring is the
  // largest power of two such that slots*(8 + 4*num_threads) fits, and the
  // id space equals the ring, so kFull only fires once every slot is
  // claimed. At least 64 slots are always provisioned so a degenerate
  // budget still yields a usable (if tiny) store.
  static StateStore with_budget(std::size_t num_threads,
                                std::size_t budget_bytes);

  // Heap-allocating variant of with_budget for callers whose store is
  // optional or outlives a scope (the store itself is not movable).
  static std::unique_ptr<StateStore> make_with_budget(
      std::size_t num_threads, std::size_t budget_bytes);

  // Explicit geometry (tests): `slots` is rounded up to a power of two;
  // `max_states` caps the id space below the ring size so the id-exhaustion
  // kFull path is reachable without filling every slot.
  StateStore(std::size_t num_threads, std::size_t slots,
             std::size_t max_states, HashFn hash = nullptr);

  // Not movable (slots are std::atomic); with_budget returns a prvalue,
  // which C++17 constructs in place.
  StateStore(const StateStore&) = delete;
  StateStore& operator=(const StateStore&) = delete;
  ~StateStore();

  std::size_t num_threads() const { return width_; }
  std::size_t capacity() const { return max_states_; }
  std::size_t slot_count() const { return slots_; }

  // States interned so far.
  // relaxed: monotone counter — exact after the writers quiesce, merely
  // fresh while they run.
  std::size_t size() const {
    const std::uint32_t n = next_id_.load(std::memory_order_relaxed);
    return n < max_states_ ? n : max_states_;
  }

  // Table bytes plus the arena chunks actually allocated — the number the
  // memory-plateau bench plots. Grows stepwise with interned states and
  // stops growing once the workload's distinct-state set is resident.
  std::size_t resident_bytes() const;

  // relaxed: monotone statistics counter.
  std::uint64_t full_rejections() const {
    return full_rejections_.load(std::memory_order_relaxed);
  }

  double load_factor() const {
    return static_cast<double>(size()) / static_cast<double>(slots_);
  }

  // Interns `f` (which must have exactly num_threads components; narrower
  // frontiers are zero-extended on the way in). Wait-free except for the
  // bounded spin on a concurrent writer's publish. Never throws.
  InsertResult find_or_put(const Frontier& f);

  // Reconstructs the frontier payload of a published id into `out`
  // (resized to num_threads). Only valid for ids returned by find_or_put.
  void load(StateId id, Frontier* out) const;

  Frontier frontier(StateId id) const {
    Frontier f;
    load(id, &f);
    return f;
  }

  // Aggregated statistics snapshot (sums the probe histogram cells).
  Stats stats() const;

  // Republishes the current stats into the telemetry's store.* instruments:
  // store.resident_bytes and store.full_rejections gauges plus the
  // store.probe_len histogram, all on shard 0 (store-wide values; gauge and
  // histogram totals sum over shards). Call from one thread at a time — the
  // drivers publish at quiescent points (drain, session reply). Null
  // telemetry is a no-op.
  void publish_stats(obs::Telemetry* telemetry) const;

  // Single-threaded reset between runs (benches): zeroes the table and the
  // id counter; allocated arena chunks are kept for reuse.
  void reset();

 private:
  static constexpr std::uint64_t kWriting = std::uint64_t{1} << 63;
  static constexpr std::uint64_t kFpMask = 0x7fffffff00000000ull;
  static constexpr std::uint64_t kIdMask = 0x00000000ffffffffull;
  // States per arena chunk; 4096 keeps tiny stores to one small chunk while
  // amortizing allocation for big ones.
  static constexpr std::size_t kChunkStates = 4096;

  std::uint64_t hash_of(const Frontier& f) const {
    return hash_ != nullptr ? hash_(f) : f.hash();
  }

  // 31-bit fingerprint in bits 62..32, never zero (an all-zero word must
  // mean "empty slot").
  static std::uint64_t fingerprint(std::uint64_t h) {
    std::uint64_t fp = (h >> 33) & 0x7fffffffull;
    if (fp == 0) fp = 1;
    return fp << 32;
  }

  const EventIndex* payload(StateId id) const {
    const EventIndex* chunk =
        // acquire: pairs with the release CAS in chunk_for — the chunk's
        // contents (other ids' payloads) are published with the pointer.
        chunks_[id / kChunkStates].load(std::memory_order_acquire);
    PM_DCHECK(chunk != nullptr);
    return chunk + (id % kChunkStates) * width_;
  }

  EventIndex* chunk_for(StateId id);
  bool payload_equals(StateId id, const Frontier& f) const;
  void record_probe(std::uint64_t distance);

  std::size_t width_ = 0;       // components per state
  std::size_t slots_ = 0;       // power of two
  std::size_t slot_mask_ = 0;   // slots_ - 1
  std::size_t max_states_ = 0;  // id space (<= slots_)
  HashFn hash_ = nullptr;

  std::unique_ptr<std::atomic<std::uint64_t>[]> table_;
  std::unique_ptr<std::atomic<EventIndex*>[]> chunks_;
  std::size_t num_chunks_ = 0;

  std::atomic<std::uint32_t> next_id_{0};
  std::atomic<std::uint64_t> full_rejections_{0};
  std::atomic<std::uint64_t> probe_count_{0};
  std::atomic<std::uint64_t> probe_sum_{0};
  std::array<std::atomic<std::uint64_t>, kProbeBuckets> probe_hist_{};
};

}  // namespace paramount
