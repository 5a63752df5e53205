// The data-race predicate (Algorithms 5-6 of the paper), in two forms.
//
// Two accesses race when they touch the same variable, at least one is a
// write, neither is an initialization write, and the two events are
// concurrent. Completeness relies on the partition property: for any racy
// pair (e, f), the later of the two in →p sees the other inside its Gbnd
// snapshot, so checking only pairs that involve the interval-owning event e
// finds every racy pair exactly where the paper's Algorithm 5 looks for it.
//
//   * check_races — the paper's per-state form: evaluated on every global
//     state G enumerated inside I(e), it compares e's accesses against those
//     of every other thread's maximal (frontier) event in G. It is the test
//     oracle (and perfbench's reference detector cost), not a runtime path.
//   * check_races_in_box — the per-interval form the detectors run: once per
//     interval, e against every event (i, k) with Gmin(e)[i] < k ≤
//     Gbnd(e)[i]. Those box cells are exactly the frontier events the
//     per-state form meets: for each cell, Gmin(e) ∨ Gmin((i, k)) is a
//     consistent state of [Gmin(e), Gbnd(e)] whose frontier holds both e and
//     (i, k); and a frontier event at k = Gmin(e)[i] lies in e's causal
//     history. So both forms report the same (var, (i, k), e) pairs.
//
// Both forms (and the O(1) epoch test in check_races) assume transitively
// closed clocks — the condition under which a vector-clock poset models a
// computation (Chauhan & Garg, arXiv:1410.1209). ClockValidator does not
// yet enforce closure; see the ROADMAP item "Reject clocks that are not
// transitively closed, on every path".
//
// `report` is a RaceReport, or any type with add(VarId, EventId, EventId)
// (the differential tests record every add).
#pragma once

#include <atomic>
#include <cstdint>

#include "detect/race_report.hpp"
#include "poset/epoch.hpp"
#include "poset/global_state.hpp"
#include "runtime/access.hpp"

namespace paramount {

namespace detail {
// Counts one candidate dropped because its event left the sliding window.
inline void count_eviction(std::atomic<std::uint64_t>* window_evictions) {
  if (window_evictions != nullptr) {
    // relaxed: monotone statistics counter, read after the run drains.
    window_evictions->fetch_add(1, std::memory_order_relaxed);
  }
}

// Whether the frontier event (tid, index) is still resident. Posets without
// a sliding window (the offline Poset) have no is_live(); everything is.
template <typename PosetT>
bool frontier_event_live(const PosetT& poset, ThreadId tid, EventIndex index) {
  if constexpr (requires { poset.is_live(tid, index); }) {
    return poset.is_live(tid, index);
  } else {
    return true;
  }
}
}  // namespace detail

// True iff accesses a and b conflict under the paper's rules.
inline bool accesses_conflict(const Access& a, const Access& b) {
  return a.var == b.var && (a.is_write || b.is_write) && !a.is_init &&
         !b.is_init;
}

// Algorithm 6 over one enumerated state. `owner` must be in G's frontier.
// Non-collection frontier events carry no accesses and are skipped.
//
// Under a sliding window (OnlinePoset with GC), a candidate whose event has
// been reclaimed cannot be examined; such pairs are dropped and counted in
// `window_evictions` rather than silently missed. With the EnumGuard pin
// protocol every state in [Gmin, Gbnd] stays resident for the enumeration's
// lifetime, so evictions only occur when collect() is driven past unpinned
// intervals (e.g. manual collect() calls between submit and a deferred
// re-check).
template <typename PosetT, typename ReportT>
void check_races(const PosetT& poset, const AccessTable& table, EventId owner,
                 const Frontier& state, ReportT& report,
                 std::atomic<std::uint64_t>* window_evictions = nullptr) {
  if (!detail::frontier_event_live(poset, owner.tid, owner.index)) {
    detail::count_eviction(window_evictions);
    return;
  }
  const Event& e = poset.event(owner.tid, owner.index);
  if (e.kind != OpKind::kCollection) return;
  if (state[owner.tid] != owner.index) {
    // The empty state {0,…,0} is assigned to the first event's interval as
    // a special case (Figure 6a); the owning event is not in its frontier,
    // so there is no pair to check.
    PM_DCHECK(state.sum() == 0);
    return;
  }
  const AccessSet& own_accesses = table.get(owner.tid, e.object);

  for (ThreadId i = 0; i < poset.num_threads(); ++i) {
    if (i == owner.tid || state[i] == 0) continue;
    if (!detail::frontier_event_live(poset, i, state[i])) {
      detail::count_eviction(window_evictions);
      continue;
    }
    const Event& f = poset.event(i, state[i]);
    if (f.kind != OpKind::kCollection) continue;
    // Frontier events of different threads are usually concurrent, but the
    // maximal event of thread i may lie inside e's causal history (e.g. in
    // G = Gmin(e)). f is thread i's event number state[i], so the O(1) epoch
    // test (poset/epoch.hpp) answers f ≼ e exactly — no full clock scan.
    if (Epoch{i, state[i]}.happens_before(e.vc)) {
      PM_DCHECK(f.vc.leq(e.vc));
      continue;
    }
    PM_DCHECK(!f.vc.leq(e.vc));
    PM_DCHECK(!e.vc.leq(f.vc));  // f cannot be above e: e is in G's frontier

    const AccessSet& other_accesses = table.get(i, f.object);
    for (const Access& a : own_accesses) {
      for (const Access& b : other_accesses) {
        if (accesses_conflict(a, b)) {
          report.add(a.var, f.id, owner);
        }
      }
    }
  }
}

// Algorithm 6 once per interval: the owner e = `owner` against every
// collection (i, k) of another thread with gmin[i] < k ≤ gbnd[i], where
// [gmin, gbnd] = [Gmin(e), Gbnd(e)] is e's interval box. Reports the same
// (var, (i, k), e) pairs as check_races over every state of the interval
// (see the header comment), in O(Σ box widths · |accesses|) instead of
// O(states · threads · |accesses|). Every box cell is concurrent with e:
// k > gmin[i] = e.vc[i], so (i, k) is not in e's history, and (i, k) was
// inserted before e in →p, so e is not in its history. No epoch test.
//
// Reclaimed events are dropped and counted in `window_evictions` as in
// check_races: one count for an evicted owner, one per evicted candidate.
template <typename PosetT, typename ReportT>
void check_races_in_box(
    const PosetT& poset, const AccessTable& table, EventId owner,
    const Frontier& gmin, const Frontier& gbnd, ReportT& report,
    std::atomic<std::uint64_t>* window_evictions = nullptr) {
  if (!detail::frontier_event_live(poset, owner.tid, owner.index)) {
    detail::count_eviction(window_evictions);
    return;
  }
  const Event& e = poset.event(owner.tid, owner.index);
  if (e.kind != OpKind::kCollection) return;
  PM_DCHECK(gmin[owner.tid] == owner.index && gbnd[owner.tid] == owner.index);
  const AccessSet& own_accesses = table.get(owner.tid, e.object);

  for (ThreadId i = 0; i < poset.num_threads(); ++i) {
    if (i == owner.tid) continue;
    for (EventIndex k = gmin[i] + 1; k <= gbnd[i]; ++k) {
      if (!detail::frontier_event_live(poset, i, k)) {
        detail::count_eviction(window_evictions);
        continue;
      }
      const Event& f = poset.event(i, k);
      if (f.kind != OpKind::kCollection) continue;
      PM_DCHECK(!f.vc.leq(e.vc));
      PM_DCHECK(!e.vc.leq(f.vc));
      const AccessSet& other_accesses = table.get(i, f.object);
      for (const Access& a : own_accesses) {
        for (const Access& b : other_accesses) {
          if (accesses_conflict(a, b)) {
            report.add(a.var, f.id, owner);
          }
        }
      }
    }
  }
}

// Figure-3 style general check used by the offline (RV-analogue) detector:
// every pair of frontier collections of G is examined.
template <typename PosetT>
void check_races_all_pairs(const PosetT& poset, const AccessTable& table,
                           const Frontier& state, RaceReport& report) {
  const std::size_t n = poset.num_threads();
  for (ThreadId i = 0; i < n; ++i) {
    if (state[i] == 0) continue;
    const Event& ei = poset.event(i, state[i]);
    if (ei.kind != OpKind::kCollection) continue;
    for (ThreadId j = i + 1; j < n; ++j) {
      if (state[j] == 0) continue;
      const Event& ej = poset.event(j, state[j]);
      if (ej.kind != OpKind::kCollection) continue;
      // Epoch form of the ordering test (see check_races above): ei is
      // thread i's event state[i], ej thread j's event state[j].
      const bool ordered = Epoch{i, state[i]}.happens_before(ej.vc) ||
                           Epoch{j, state[j]}.happens_before(ei.vc);
      PM_DCHECK(ordered == (ei.vc.leq(ej.vc) || ej.vc.leq(ei.vc)));
      if (ordered) continue;
      const AccessSet& ai = table.get(i, ei.object);
      const AccessSet& aj = table.get(j, ej.object);
      for (const Access& a : ai) {
        for (const Access& b : aj) {
          if (accesses_conflict(a, b)) {
            report.add(a.var, ei.id, ej.id);
          }
        }
      }
    }
  }
}

}  // namespace paramount
