#include "util/state_store.hpp"

#include <cstring>
#include <thread>

#include "obs/telemetry.hpp"

namespace paramount {

namespace {

std::size_t next_pow2(std::size_t n) {
  if (n < 2) return 1;
  return std::size_t{1} << std::bit_width(n - 1);
}

}  // namespace

namespace {

std::size_t slots_for_budget(std::size_t num_threads,
                             std::size_t budget_bytes) {
  // Worst case per interned state: one table word plus one arena component
  // per thread. The ring is the largest power of two fitting the budget;
  // 64 slots minimum keeps degenerate budgets usable, and the hard 2^31
  // ceiling keeps the fingerprint word's id field in range.
  const std::size_t per_state =
      sizeof(std::uint64_t) + num_threads * sizeof(EventIndex);
  std::size_t slots = std::size_t{1} << 6;
  while (slots * 2 * per_state <= budget_bytes &&
         slots < (std::size_t{1} << 31)) {
    slots *= 2;
  }
  return slots;
}

}  // namespace

StateStore StateStore::with_budget(std::size_t num_threads,
                                   std::size_t budget_bytes) {
  PM_CHECK_MSG(num_threads > 0, "state store needs at least one thread");
  const std::size_t slots = slots_for_budget(num_threads, budget_bytes);
  return StateStore(num_threads, slots, slots);
}

std::unique_ptr<StateStore> StateStore::make_with_budget(
    std::size_t num_threads, std::size_t budget_bytes) {
  PM_CHECK_MSG(num_threads > 0, "state store needs at least one thread");
  const std::size_t slots = slots_for_budget(num_threads, budget_bytes);
  return std::make_unique<StateStore>(num_threads, slots, slots);
}

StateStore::StateStore(std::size_t num_threads, std::size_t slots,
                       std::size_t max_states, HashFn hash)
    : width_(num_threads),
      slots_(next_pow2(slots)),
      slot_mask_(slots_ - 1),
      max_states_(max_states < slots_ ? max_states : slots_),
      hash_(hash) {
  PM_CHECK_MSG(width_ > 0, "state store needs at least one thread");
  PM_CHECK_MSG(slots_ <= (std::size_t{1} << 31),
               "state store ring above 2^31 slots");
  PM_CHECK_MSG(max_states_ > 0, "state store needs a nonzero id space");
  table_ = std::make_unique<std::atomic<std::uint64_t>[]>(slots_);
  for (std::size_t i = 0; i < slots_; ++i) {
    // relaxed: single-threaded construction; publication to the inserting
    // threads happens-before via whatever hands them the store.
    table_[i].store(0, std::memory_order_relaxed);
  }
  num_chunks_ = (max_states_ + kChunkStates - 1) / kChunkStates;
  chunks_ = std::make_unique<std::atomic<EventIndex*>[]>(num_chunks_);
  for (std::size_t c = 0; c < num_chunks_; ++c) {
    // relaxed: single-threaded construction, see above.
    chunks_[c].store(nullptr, std::memory_order_relaxed);
  }
}

StateStore::~StateStore() {
  for (std::size_t c = 0; c < num_chunks_; ++c) {
    // relaxed: destruction is single-threaded; the writers have quiesced.
    delete[] chunks_[c].load(std::memory_order_relaxed);
  }
}

EventIndex* StateStore::chunk_for(StateId id) {
  std::atomic<EventIndex*>& slot = chunks_[id / kChunkStates];
  EventIndex* chunk = slot.load(std::memory_order_acquire);
  if (chunk == nullptr) {
    auto* fresh = new EventIndex[kChunkStates * width_];
    // Racing allocators: exactly one CAS wins and publishes; losers free
    // their copy and adopt the winner's (acq_rel: the winner's release
    // publishes the allocation, the loser's acquire reads it).
    if (slot.compare_exchange_strong(chunk, fresh, std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
      chunk = fresh;
    } else {
      delete[] fresh;
    }
  }
  return chunk;
}

bool StateStore::payload_equals(StateId id, const Frontier& f) const {
  const EventIndex* p = payload(id);
  const std::size_t n = f.size() < width_ ? f.size() : width_;
  for (std::size_t i = 0; i < n; ++i) {
    if (p[i] != f[i]) return false;
  }
  // A narrower frontier is zero-extended: the stored tail must be zero.
  for (std::size_t i = n; i < width_; ++i) {
    if (p[i] != 0) return false;
  }
  return true;
}

void StateStore::record_probe(std::uint64_t distance) {
  std::size_t bucket =
      distance == 0 ? 0 : static_cast<std::size_t>(std::bit_width(distance));
  if (bucket >= kProbeBuckets) bucket = kProbeBuckets - 1;
  // relaxed: statistics counters — aggregated by stats() after (or merely
  // near) the fact; no data is published through them.
  probe_hist_[bucket].fetch_add(1, std::memory_order_relaxed);
  probe_count_.fetch_add(1, std::memory_order_relaxed);
  probe_sum_.fetch_add(distance, std::memory_order_relaxed);
}

StateStore::InsertResult StateStore::find_or_put(const Frontier& f) {
  PM_DCHECK(f.size() <= width_);
  if (f.size() != width_) {
    // Canonicalize before hashing: {3,1} and {3,1,0,0} are the same state,
    // but Frontier::hash() seeds with the component count, so the narrow
    // form must be zero-extended up front, not just in the payload compare.
    Frontier padded(width_);
    for (std::size_t i = 0; i < f.size(); ++i) padded[i] = f[i];
    return find_or_put(padded);
  }
  const std::uint64_t h = hash_of(f);
  const std::uint64_t fp = fingerprint(h);
  std::size_t slot = static_cast<std::size_t>(h) & slot_mask_;

  for (std::size_t distance = 0; distance < slots_;
       ++distance, slot = (slot + 1) & slot_mask_) {
    // acquire: a published word (write bit clear) must make the payload
    // written before the publishing release-store visible to the compare.
    std::uint64_t word = table_[slot].load(std::memory_order_acquire);
    if (word == 0) {
      // Claim the slot. acq_rel: success orders our claim after any prior
      // published neighbors; failure reloads with acquire for the re-check.
      if (table_[slot].compare_exchange_strong(word, fp | kWriting,
                                               std::memory_order_acq_rel,
                                               std::memory_order_acquire)) {
        // relaxed: the RMW alone makes id allocation exactly-once; the
        // payload publication rides the table word's release below.
        const std::uint32_t id =
            next_id_.fetch_add(1, std::memory_order_relaxed);
        if (id >= max_states_) {
          // Id space exhausted with the slot already claimed. Publish a
          // dead word (fingerprint kept, id field zero): it stays occupied
          // so the probe-ring invariant holds, and matches no state (real
          // ids are published as id+1, never 0).
          // relaxed: see record_probe — statistics only.
          full_rejections_.fetch_add(1, std::memory_order_relaxed);
          table_[slot].store(fp, std::memory_order_release);
          return {kInvalidId, false, Status::kFull};
        }
        EventIndex* dst =
            chunk_for(id) + (id % kChunkStates) * width_;
        const std::size_t n = f.size() < width_ ? f.size() : width_;
        for (std::size_t i = 0; i < n; ++i) dst[i] = f[i];
        for (std::size_t i = n; i < width_; ++i) dst[i] = 0;
        // release: publishes the payload (and the id) to every reader that
        // acquires this word with the write bit clear.
        table_[slot].store(fp | (std::uint64_t{id} + 1),
                           std::memory_order_release);
        record_probe(distance);
        return {id, true, Status::kOk};
      }
      // CAS lost: `word` now holds the racing claim; fall through to the
      // fingerprint check against it.
    }
    if ((word & kFpMask) == fp) {
      // Same fingerprint: wait out a concurrent writer's publish, then
      // compare payloads.
      while (word & kWriting) {
        std::this_thread::yield();
        // acquire: see the probe-loop load — pairs with the publish.
        word = table_[slot].load(std::memory_order_acquire);
      }
      const std::uint64_t id_plus_1 = word & kIdMask;
      // id field zero = dead slot from a lost id race; matches nothing.
      if (id_plus_1 != 0) {
        const StateId id = static_cast<StateId>(id_plus_1 - 1);
        if (payload_equals(id, f)) {
          record_probe(distance);
          return {id, false, Status::kOk};
        }
      }
    }
    // Fingerprint mismatch or payload collision: next slot.
  }
  // Full ring scanned without an empty slot or a match: the table is full.
  // relaxed: statistics only, see record_probe.
  full_rejections_.fetch_add(1, std::memory_order_relaxed);
  return {kInvalidId, false, Status::kFull};
}

void StateStore::load(StateId id, Frontier* out) const {
  PM_CHECK_MSG(id < size(), "state id out of range");
  const EventIndex* p = payload(id);
  Frontier f(width_);
  for (std::size_t i = 0; i < width_; ++i) f[i] = p[i];
  *out = std::move(f);
}

std::size_t StateStore::resident_bytes() const {
  std::size_t bytes = slots_ * sizeof(std::uint64_t) +
                      num_chunks_ * sizeof(std::atomic<EventIndex*>);
  for (std::size_t c = 0; c < num_chunks_; ++c) {
    // relaxed: counting allocations, not reading through the pointers.
    if (chunks_[c].load(std::memory_order_relaxed) != nullptr) {
      bytes += kChunkStates * width_ * sizeof(EventIndex);
    }
  }
  return bytes;
}

StateStore::Stats StateStore::stats() const {
  Stats s;
  s.size = size();
  s.capacity = max_states_;
  s.slots = slots_;
  s.resident_bytes = resident_bytes();
  s.full_rejections = full_rejections();
  // relaxed: statistics counters, see record_probe.
  s.probe_count = probe_count_.load(std::memory_order_relaxed);
  s.probe_sum = probe_sum_.load(std::memory_order_relaxed);
  for (std::size_t b = 0; b < kProbeBuckets; ++b) {
    // relaxed: statistics counters, see record_probe.
    s.probe_hist[b] = probe_hist_[b].load(std::memory_order_relaxed);
  }
  return s;
}

void StateStore::publish_stats(obs::Telemetry* telemetry) const {
  if (telemetry == nullptr) return;
  const Stats s = stats();
  obs::MetricsRegistry& m = telemetry->metrics();
  m.set(telemetry->store_resident_bytes, 0, s.resident_bytes);
  m.set(telemetry->store_full_rejections, 0, s.full_rejections);
  // Same log2 bucket rule as MetricsRegistry::observe (bucket =
  // bit_width(distance)), so the wholesale republish slots straight in.
  m.set_histogram(telemetry->store_probe_len, 0, s.probe_hist.data(),
                  kProbeBuckets, s.probe_count, s.probe_sum);
}

void StateStore::reset() {
  for (std::size_t i = 0; i < slots_; ++i) {
    // relaxed: single-threaded reset between runs — callers quiesce first.
    table_[i].store(0, std::memory_order_relaxed);
  }
  // relaxed: quiescent-state reset, see above.
  next_id_.store(0, std::memory_order_relaxed);
  full_rejections_.store(0, std::memory_order_relaxed);
  probe_count_.store(0, std::memory_order_relaxed);
  probe_sum_.store(0, std::memory_order_relaxed);
  for (auto& b : probe_hist_) b.store(0, std::memory_order_relaxed);
}

}  // namespace paramount
