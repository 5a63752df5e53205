// bench_clocks — measures the clock backends (poset/clock_backend.hpp) on
// wide synthetic streams: per-sync join cost and raw stream generation
// throughput under two workload regimes, plus end-to-end online
// enumeration, at 16/64/256 threads per backend.
//
// Workloads:
//   * "mixing" — 8 locks chosen uniformly: every sync transfers knowledge
//     from a globally fresh timeline, so the information flow is dense.
//     This is flat's best case (one vectorized max over a contiguous
//     array); tree pays pointer-chasing for ~the same number of updated
//     components and loses on wall clock despite lower join work.
//   * "convoy" — one lock per thread, 95% of syncs reacquire the thread's
//     own lock and the rest touch the next thread's lock (the locality
//     real lock usage exhibits, per the FastTrack and tree-clock papers:
//     mostly-private locks plus neighbor/shard contention). Knowledge
//     still diffuses across the whole system, but each transfer is small,
//     the tree backend prunes joins to a handful of nodes, and it beats
//     flat even though flat still scans all components per sync.
//   * "chain" — single lock, sync every event, feeding OnlineParamount:
//     a near-total order, so full enumeration stays ~linear in events at
//     any width (state enumeration is exponential in antichain width, so
//     the mixing stream is not enumerable at 256 threads). The enumerated
//     state count is the oracle: it must be identical across backends and
//     the process exits 1 on divergence, so the CI job doubles as a
//     correctness gate without asserting on wall-clock numbers.
//
// Output: BENCH_clocks.json (committed at the repo root; regenerate with
//   build/bench/bench_clocks --out=BENCH_clocks.json
// from a Release build on a quiet machine).
#include <cstdio>
#include <string>
#include <vector>

#include "core/online_paramount.hpp"
#include "obs/json_writer.hpp"
#include "poset/clock_backend.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"
#include "workloads/event_stream.hpp"

using namespace paramount;

namespace {

struct RunRecord {
  std::size_t threads = 0;
  std::string backend;
  std::string workload;              // mixing | convoy | chain
  double join_ns_per_op = 0.0;       // engine sync_step, incl. materialize
  double join_work_per_op = 0.0;     // components touched per sync
  double stream_events_per_sec = 0.0;
  std::uint64_t states = 0;          // chain only: enumeration oracle + rate
  double states_per_sec = 0.0;
};

// Micro: engine sync_steps round-robin over threads — the Algorithm-3 hot
// loop with no stream or enumeration around it. `convoy` switches the lock
// choice from uniform-over-8 to 95% own-lock / 5% neighbor-lock.
void bench_sync(std::size_t threads, ClockBackend backend, bool convoy,
                std::uint64_t ops, RunRecord* out) {
  auto engine = ClockEngine::make(backend, threads);
  Rng rng(7);
  VectorClock clock;
  const std::size_t num_locks = convoy ? threads : 8;
  const auto pick_lock = [&](ThreadId tid) {
    if (!convoy) return rng.next_below(num_locks);
    if (rng.next_double() < 0.95) return std::size_t{tid};
    return std::size_t{(tid + 1) % threads};
  };
  for (std::uint64_t i = 0; i < ops / 10; ++i) {  // warmup
    const auto tid = static_cast<ThreadId>(i % threads);
    engine->sync_step(tid, pick_lock(tid), &clock);
  }
  // Best of three: adjacent cells leave the allocator and caches in
  // different states, and the minimum is the measurement least polluted by
  // the previous cell.
  double best_seconds = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    const std::uint64_t work_before = engine->join_work();
    WallTimer timer;
    for (std::uint64_t i = 0; i < ops; ++i) {
      const auto tid = static_cast<ThreadId>(i % threads);
      engine->sync_step(tid, pick_lock(tid), &clock);
    }
    const double seconds = timer.elapsed_seconds();
    if (rep == 0 || seconds < best_seconds) best_seconds = seconds;
    out->join_work_per_op =
        static_cast<double>(engine->join_work() - work_before) /
        static_cast<double>(ops);
  }
  out->join_ns_per_op = best_seconds * 1e9 / static_cast<double>(ops);
}

SyntheticEventStream::Params stream_params(std::size_t threads,
                                           ClockBackend backend,
                                           bool convoy) {
  SyntheticEventStream::Params params;
  params.num_threads = threads;
  params.sync_probability = 0.5;  // lock-heavy: the clock pipeline dominates
  if (convoy) {
    params.num_locks = threads;
    params.lock_affinity = 0.95;
    params.lock_spread = 1;  // misses hit the neighbor's lock
  } else {
    params.num_locks = 8;
  }
  params.seed = 42;
  params.clock_backend = backend;
  return params;
}

// Raw generation throughput: how fast the clock pipeline can produce the
// wide stream, with no consumer attached.
void bench_stream(std::size_t threads, ClockBackend backend, bool convoy,
                  std::uint64_t events, RunRecord* out) {
  SyntheticEventStream stream(stream_params(threads, backend, convoy));
  std::uint64_t checksum = 0;
  WallTimer timer;
  for (std::uint64_t i = 0; i < events; ++i) {
    checksum += stream.next().clock.sum() & 1;
  }
  const double seconds = timer.elapsed_seconds();
  out->stream_events_per_sec = static_cast<double>(events) / seconds;
  if (checksum == ~0ull) {  // never true; keeps the loop observable
    std::printf("checksum %llu\n", static_cast<unsigned long long>(checksum));
  }
}

// End to end: a near-chain stream feeding OnlineParamount (inline
// enumeration, the sliding window keeping memory flat). The state count is
// the cross-backend oracle.
void bench_online(std::size_t threads, ClockBackend backend,
                  std::uint64_t events, RunRecord* out) {
  OnlineParamount::Options options;
  options.window_policy.gc_every = 4096;
  OnlineParamount driver(threads, options);
  SyntheticEventStream::Params params =
      stream_params(threads, backend, /*convoy=*/false);
  params.num_locks = 1;
  params.sync_probability = 1.0;
  SyntheticEventStream stream(params);
  WallTimer timer;
  for (std::uint64_t i = 0; i < events; ++i) {
    SyntheticEventStream::StreamEvent ev = stream.next();
    driver.submit(ev.tid, ev.kind, ev.object, std::move(ev.clock));
  }
  driver.drain();
  const double seconds = timer.elapsed_seconds();
  out->states = driver.states_enumerated();
  out->states_per_sec = static_cast<double>(out->states) / seconds;
}

bool write_json(const std::string& path, bool quick,
                const std::vector<RunRecord>& runs) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("bench").value("clocks");
  w.key("quick").value(quick);
  w.key("seed").value(std::uint64_t{42});
  w.key("runs").begin_array();
  for (const RunRecord& run : runs) {
    w.begin_object();
    w.key("threads").value(static_cast<std::uint64_t>(run.threads));
    w.key("backend").value(run.backend);
    w.key("workload").value(run.workload);
    if (run.workload == "chain") {
      w.key("states").value(run.states);
      w.key("states_per_sec").value(run.states_per_sec);
    } else {
      w.key("join_ns_per_op").value(run.join_ns_per_op);
      w.key("join_work_per_op").value(run.join_work_per_op);
      w.key("stream_events_per_sec").value(run.stream_events_per_sec);
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return false;
  }
  const std::string json = std::move(w).take();
  std::fputs(json.c_str(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags(
      "bench_clocks — clock-backend join/throughput comparison at "
      "16/64/256 threads, with a cross-backend state-count oracle.");
  flags.add_string("out", "BENCH_clocks.json", "output JSON path");
  flags.add_bool("quick", false, "CI-sized run (fewer ops per cell)");
  if (!flags.parse(argc, argv)) return 0;

  const bool quick = flags.get_bool("quick");
  const std::uint64_t sync_ops = quick ? 40000 : 400000;
  const std::uint64_t stream_events = quick ? 50000 : 400000;
  const std::uint64_t online_events = quick ? 20000 : 100000;

  const std::size_t widths[] = {16, 64, 256};
  std::vector<RunRecord> runs;
  bool diverged = false;
  for (const std::size_t threads : widths) {
    for (const bool convoy : {false, true}) {
      for (ClockBackend backend : all_clock_backends()) {
        RunRecord run;
        run.threads = threads;
        run.backend = clock_backend_name(backend);
        run.workload = convoy ? "convoy" : "mixing";
        bench_sync(threads, backend, convoy, sync_ops, &run);
        bench_stream(threads, backend, convoy, stream_events, &run);
        std::printf(
            "%3zu threads  %-6s %-5s  join %8.1f ns/op (work %6.1f)  "
            "stream %10.0f ev/s\n",
            threads, run.workload.c_str(), run.backend.c_str(),
            run.join_ns_per_op, run.join_work_per_op,
            run.stream_events_per_sec);
        runs.push_back(run);
      }
    }
    std::uint64_t reference_states = 0;
    for (ClockBackend backend : all_clock_backends()) {
      RunRecord run;
      run.threads = threads;
      run.backend = clock_backend_name(backend);
      run.workload = "chain";
      bench_online(threads, backend, online_events, &run);
      std::printf(
          "%3zu threads  %-6s %-5s  online %8llu states %10.0f st/s\n",
          threads, run.workload.c_str(), run.backend.c_str(),
          static_cast<unsigned long long>(run.states), run.states_per_sec);
      if (backend == ClockBackend::kFlat) {
        reference_states = run.states;
      } else if (run.states != reference_states) {
        std::fprintf(stderr,
                     "DIVERGENCE: %s enumerated %llu states at %zu threads, "
                     "flat enumerated %llu\n",
                     run.backend.c_str(),
                     static_cast<unsigned long long>(run.states), threads,
                     static_cast<unsigned long long>(reference_states));
        diverged = true;
      }
      runs.push_back(run);
    }
  }
  if (!write_json(flags.get_string("out"), quick, runs)) return 1;
  return diverged ? 1 : 0;
}
