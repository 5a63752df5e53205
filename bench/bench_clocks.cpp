// bench_clocks — measures what clock width costs end to end: a synthetic
// stream with one lock and a sync on every event (a total order in which
// every event pays a full-width Algorithm-3 join) feeding OnlineParamount
// with the sliding window on, at 16/64/256 threads.
//
// A total order has exactly events + 1 consistent global states at any
// width (state enumeration is exponential in antichain width, so this is
// the one shape that stays enumerable at 256 threads). That count is the
// oracle: the process exits 1 if any width enumerates a different number,
// so the CI job doubles as a correctness gate without asserting on
// wall-clock numbers.
//
// Output: BENCH_clocks.json (committed at the repo root; regenerate with
//   build/bench/bench_clocks --out=BENCH_clocks.json
// from a Release build on a quiet machine).
#include <cstdio>
#include <string>
#include <vector>

#include "core/online_paramount.hpp"
#include "obs/json_writer.hpp"
#include "util/cli.hpp"
#include "util/timer.hpp"
#include "workloads/event_stream.hpp"

using namespace paramount;

namespace {

struct RunRecord {
  std::size_t threads = 0;
  std::uint64_t states = 0;
  double states_per_sec = 0.0;
};

// Inline enumeration; the sliding window keeps memory flat at any width.
void bench_chain(std::size_t threads, std::uint64_t events, RunRecord* out) {
  OnlineParamount::Options options;
  options.window_policy.gc_every = 4096;
  OnlineParamount driver(threads, options);
  SyntheticEventStream::Params params;
  params.num_threads = threads;
  params.num_locks = 1;
  params.sync_probability = 1.0;
  params.seed = 42;
  SyntheticEventStream stream(params);
  WallTimer timer;
  for (std::uint64_t i = 0; i < events; ++i) {
    SyntheticEventStream::StreamEvent ev = stream.next();
    driver.submit(ev.tid, ev.kind, ev.object, std::move(ev.clock));
  }
  driver.drain();
  const double seconds = timer.elapsed_seconds();
  out->threads = threads;
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
    w.key("workload").value("chain");
    w.key("states").value(run.states);
    w.key("states_per_sec").value(run.states_per_sec);
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
      "bench_clocks — online chain enumeration at 16/64/256 threads, "
      "checked against the total-order state count (events + 1).");
  flags.add_string("out", "BENCH_clocks.json", "output JSON path");
  flags.add_bool("quick", false, "CI-sized run (fewer events per width)");
  if (!flags.parse(argc, argv)) return 0;

  const bool quick = flags.get_bool("quick");
  const std::uint64_t events = quick ? 20000 : 100000;

  const std::size_t widths[] = {16, 64, 256};
  std::vector<RunRecord> runs;
  bool wrong = false;
  for (const std::size_t threads : widths) {
    RunRecord run;
    bench_chain(threads, events, &run);
    std::printf("%3zu threads  chain  online %8llu states %10.0f st/s\n",
                threads, static_cast<unsigned long long>(run.states),
                run.states_per_sec);
    if (run.states != events + 1) {
      std::fprintf(stderr,
                   "WRONG COUNT: %llu states at %zu threads, a total order "
                   "of %llu events has %llu\n",
                   static_cast<unsigned long long>(run.states), threads,
                   static_cast<unsigned long long>(events),
                   static_cast<unsigned long long>(events + 1));
      wrong = true;
    }
    runs.push_back(run);
  }
  if (!write_json(flags.get_string("out"), quick, runs)) return 1;
  return wrong ? 1 : 0;
}
