// pmbench: ParaMount's end-to-end and per-layer benchmark.
//
// One run = one workload and one seed. Set-up generates the workload's
// .pmt trace from the seed, opens it, starts an in-process EpollServer on a
// Unix socket, and builds the oracle from the generated events (not from
// the file, so the file round trip is checked too). The run then replays
// the trace through the four paths users run, round after round, until
// --seconds have passed:
//
//   offline    trace::replay_count_offline, 3 enumeration workers
//   streaming  trace::replay_count_streaming, 3 enumeration workers
//   online     trace::replay_count_online, submitter + 3 pooled workers
//   service    one client connection streaming Event frames into the
//              EpollServer (2 session pool workers, window GC on, submit
//              budget set), a Poll every K events, then Drain
//
// Every result is checked against the oracle; a miss, a typed TraceError,
// an Error frame, a transport or protocol failure, or a leaked pin counts
// as a failed operation. --trace=0 prints the end-to-end metrics (tracing
// off); --trace=1 is the separate traced run that times the benchmark's
// own calls into each module's public functions, reads the counters the
// library exports through obs::Telemetry, prints the per-layer metrics and
// writes the spans as a Chrome trace.
//
// Output: one `metric <name> <value> <unit> <samples>` line per metric, an
// `ops <attempted> <failed>` line, and `info` lines; perfbench/run.py turns
// them into the benchmark's result record.
#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "core/interval.hpp"
#include "core/online_paramount.hpp"
#include "core/paramount.hpp"
#include "detect/race_predicate.hpp"
#include "detect/race_report.hpp"
#include "enumeration/dispatch.hpp"
#include "obs/telemetry.hpp"
#include "poset/online_poset.hpp"
#include "poset/poset_builder.hpp"
#include "runtime/access.hpp"
#include "service/epoll_server.hpp"
#include "service/frame.hpp"
#include "service_client.hpp"
#include "spans.hpp"
#include "trace/replay.hpp"
#include "trace/trace_reader.hpp"
#include "trace/trace_writer.hpp"
#include "util/cli.hpp"
#include "util/mem_meter.hpp"
#include "util/state_store.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"
#include "workloads/scenarios/scenarios.hpp"

using namespace paramount;
using pmbench::SpanLog;
using pmbench::Timed;

namespace {

// Load shape: at most 4 busy threads on any path (see README.md).
constexpr std::size_t kEnumWorkers = 3;
constexpr std::size_t kOnlineWorkers = 3;
constexpr std::uint32_t kSessionWorkers = 2;
constexpr std::uint64_t kGcEvery = 4096;
constexpr std::size_t kSubmitBudgetBytes = std::size_t{1} << 20;
constexpr int kMinRounds = 3;
constexpr int kSetupReps = 3;  // setup_s is the median of this many set-ups
constexpr std::uint64_t kPollsPerPass = 50;
constexpr int kIdlePolls = 200;
constexpr std::size_t kPollBlock = 1000;
// Byte budget of the StateStore in the BFS parity pass; the interval
// subset is sized to half its slots.
constexpr std::size_t kBfsStoreBytes = std::size_t{32} << 20;

struct Workload {
  const char* name;
  const char* scenario;
  std::size_t threads;
  std::uint64_t events;
  std::size_t phases;  // >1: the scenario runs in phases (PhasedStream)
  // Nonzero: of kCandidates streams seeded from --seed, keep the one whose
  // lattice size is closest to this (see README.md, "race-hotvar").
  std::uint64_t target_states;
};

// Sizes fit a ~1 s round of all four paths on a 4-core box (README.md).
constexpr Workload kWorkloads[] = {
    {"dense-fanin", "fanin-queue", 6, 24000, 1, 0},
    {"convoy-8", "lock-convoy", 8, 60000, 1, 0},
    {"convoy-64", "lock-convoy", 64, 12000, 1, 0},
    {"race-hotvar", "hot-var", 6, 800, 8, 2000000},
};
constexpr std::uint64_t kCandidates = 12;
// Count paths repeat within a round until they have run this long, so a
// short pass still yields enough samples for a steady median.
constexpr double kMinPathSeconds = 0.15;

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// ---- failure accounting ----

struct Gate {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  // Counts one operation; `why` is empty when it succeeded.
  void op(const std::string& what, const std::string& why) {
    ++attempted;
    if (why.empty()) return;
    ++failed;
    std::printf("fail %s: %s\n", what.c_str(), why.c_str());
  }
};

std::string mismatch(const char* what, std::uint64_t got,
                     std::uint64_t want) {
  if (got == want) return {};
  return std::string(what) + " " + std::to_string(got) + " != oracle " +
         std::to_string(want);
}

// ---- metrics ----

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::size_t samples;
};

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

// ---- set-up ----

struct Oracle {
  std::uint64_t states = 0;
  std::vector<VarId> racy_vars;  // sorted
};

struct Setup {
  std::string trace_path;  // the file the timed paths read
  trace::TraceReader reader;
  std::string socket_path;
  std::unique_ptr<service::EpollServer> server;
  // Built from the generator's events: collection objects index `table`.
  Poset poset{0};
  std::unique_ptr<AccessTable> table;
  std::vector<EventId> order;  // generation order, a linear extension
  std::uint64_t scenario_seed = 0;
  Oracle oracle;
};

struct RunOptions {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  std::uint64_t events = 0;
  double scale = 1.0;
  std::string out_dir;
  std::string fault;  // test hook: "", "corrupt-trace", "wrong-count"
};

std::string trace_error_text(const trace::TraceError& e) {
  return "typed TraceError " + e.to_string();
}

// check_races over every state of every interval, from `threads` threads
// claiming intervals off a shared counter and sharing one RaceReport — the
// shape of the service's pooled detector. Returns the wall seconds.
double race_pass(const Setup& s, const std::vector<Interval>& intervals,
                 std::size_t threads, RaceReport* report) {
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (std::size_t i = next.fetch_add(1); i < intervals.size();
         i = next.fetch_add(1)) {
      const Interval& iv = intervals[i];
      enumerate_box(EnumAlgorithm::kLexical, s.poset, iv.gmin, iv.gbnd,
                    [&](const Frontier& f) {
                      check_races(s.poset, *s.table, iv.event, f, *report);
                    });
    }
  };
  const WallTimer timer;
  std::vector<std::thread> pool;
  for (std::size_t t = 1; t < threads; ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();
  return timer.elapsed_seconds();
}

std::vector<VarId> racy_vars(const RaceReport& report) {
  std::vector<VarId> vars;
  for (const RaceFinding& f : report.findings()) vars.push_back(f.var);
  return vars;
}

// Flips one byte in the middle of the chunk region of a copy of `path`.
bool write_corrupt_copy(const std::string& path, const std::string& copy) {
  std::ifstream in(path, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  if (bytes.size() < 256) return false;
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x5a);
  std::ofstream out(copy, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(out);
}

// A scenario run in phases: `phases` independent streams of the same
// scenario, one after another, with every event of a phase ordered after
// every event of the phases before it (a full barrier between phases).
// Each phase's clocks are rebased by the per-thread event counts of the
// phases before it, so the result is again a valid stream. A lattice glued
// at barriers is the sum of its phases' lattices, which makes the whole
// trace's size and per-state cost an average over the phases.
class PhasedStream final : public ScenarioStream {
 public:
  PhasedStream(const char* scenario, ScenarioParams params, std::size_t phases)
      : scenario_(scenario), params_(params), phases_(phases),
        base_(params.num_threads, 0), count_(params.num_threads, 0) {
    params_.num_events = std::max<std::uint64_t>(1, params.num_events / phases);
  }

  std::size_t num_threads() const override { return params_.num_threads; }

  bool next(trace::TraceEvent* out) override {
    for (;;) {
      if (phase_ == nullptr) {
        if (started_ == phases_) return false;
        ScenarioParams p = params_;
        p.seed = params_.seed * phases_ + started_++;
        phase_ = make_scenario(scenario_, p);
        base_ = count_;
      }
      if (phase_->next(out)) break;
      phase_.reset();
    }
    for (std::size_t j = 0; j < base_.size(); ++j) out->clock[j] += base_[j];
    count_[out->tid] = out->clock[out->tid];
    return true;
  }

 private:
  const char* scenario_;
  ScenarioParams params_;
  std::size_t phases_;
  std::size_t started_ = 0;
  std::unique_ptr<ScenarioStream> phase_;
  std::vector<EventIndex> base_;
  std::vector<EventIndex> count_;
};

std::unique_ptr<ScenarioStream> make_stream(const Workload& w,
                                            const ScenarioParams& params) {
  if (w.phases > 1) {
    return std::make_unique<PhasedStream>(w.scenario, params, w.phases);
  }
  return make_scenario(w.scenario, params);
}

// States of the workload's stream for `params`, counted by inline
// Algorithm 4; stops counting once past `cap`.
std::uint64_t count_states(const Workload& w, const ScenarioParams& params,
                           std::uint64_t cap) {
  std::unique_ptr<ScenarioStream> stream = make_stream(w, params);
  OnlineParamount counter(params.num_threads, {},
                          [](const OnlinePoset&, EventId, const Frontier&) {});
  trace::TraceEvent ev;
  while (counter.states_enumerated() <= cap && stream->next(&ev)) {
    counter.submit(ev.tid, ev.kind, ev.object, std::move(ev.clock));
  }
  return counter.states_enumerated();
}

// The scenario seed for this run: --seed itself, or for a workload with a
// state target the closest of kCandidates seeds derived from it (counted on
// 4 threads).
std::uint64_t scenario_seed(const RunOptions& opt) {
  const Workload& w = *opt.workload;
  if (w.target_states == 0) return opt.seed;
  const std::uint64_t target = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(static_cast<double>(w.target_states) *
                                    opt.scale));
  std::vector<std::uint64_t> states(kCandidates);
  std::atomic<std::uint64_t> next{0};
  const auto worker = [&] {
    for (std::uint64_t k = next.fetch_add(1); k < kCandidates;
         k = next.fetch_add(1)) {
      ScenarioParams params;
      params.num_threads = w.threads;
      params.num_events = opt.events;
      params.seed = opt.seed * kCandidates + k;
      states[k] = count_states(w, params, 2 * target);
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < 3; ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();
  std::uint64_t best = 0;
  const auto distance = [target](std::uint64_t v) {
    return v > target ? v - target : target - v;
  };
  for (std::uint64_t k = 1; k < kCandidates; ++k) {
    if (distance(states[k]) < distance(states[best])) best = k;
  }
  return opt.seed * kCandidates + best;
}

// Generates and writes the trace, opens it, starts the server and builds
// the oracle. Returns an empty string or the failure.
std::string build_setup(const RunOptions& opt, SpanLog* log, Setup* s) {
  const Workload& w = *opt.workload;
  const std::string stem = opt.out_dir + "/" + w.name + "-" +
                           std::to_string(opt.seed) + "-" +
                           std::to_string(::getpid());
  s->trace_path = stem + ".pmt";
  {
    Timed span(log, "setup.generate_trace");
    ScenarioParams params;
    params.num_threads = w.threads;
    params.num_events = opt.events;
    params.seed = s->scenario_seed = scenario_seed(opt);
    std::unique_ptr<ScenarioStream> stream = make_stream(w, params);
    if (stream == nullptr) return std::string("unknown scenario ") + w.scenario;
    trace::TraceWriter writer;
    trace::TraceError error;
    if (!writer.open(s->trace_path, w.threads, {}, &error)) {
      return trace_error_text(error);
    }
    PosetBuilder builder(w.threads);
    s->table = std::make_unique<AccessTable>(w.threads);
    s->order.clear();
    s->order.reserve(opt.events);
    trace::TraceEvent ev;
    while (stream->next(&ev)) {
      writer.append(ev);
      std::uint32_t object = ev.object;
      if (ev.kind == OpKind::kCollection) {
        AccessSet set;
        for (const trace::TraceAccess& a : ev.accesses) {
          set.merge(a.var, a.is_write, a.is_init);
        }
        object = s->table->append(ev.tid, std::move(set));
      }
      s->order.push_back(builder.add_event_with_clock(ev.tid, ev.kind, object,
                                                      std::move(ev.clock)));
    }
    if (!writer.finish(&error)) return trace_error_text(error);
    s->poset = std::move(builder).build();
  }
  if (opt.fault == "corrupt-trace") {
    const std::string copy = stem + ".corrupt.pmt";
    if (!write_corrupt_copy(s->trace_path, copy)) return "cannot corrupt trace";
    std::remove(s->trace_path.c_str());
    s->trace_path = copy;
  }
  {
    Timed span(log, "setup.open_trace");
    trace::TraceError error;
    if (!s->reader.open(s->trace_path, &error)) return trace_error_text(error);
  }
  {
    Timed span(log, "setup.start_server");
    s->socket_path = stem + ".sock";
    service::EpollServer::Options options;
    options.endpoint.kind = service::Endpoint::Kind::kUnix;
    options.endpoint.path = s->socket_path;
    options.max_sessions = 4;
    options.submit_budget_bytes = kSubmitBudgetBytes;
    s->server = std::make_unique<service::EpollServer>(options);
    std::string error;
    if (!s->server->start(&error)) return "server start: " + error;
  }
  {
    Timed span(log, "setup.oracle");
    s->oracle.states =
        enumerate_all(EnumAlgorithm::kLexical, s->poset, [](const Frontier&) {})
            .states;
    bool has_collections = false;
    for (ThreadId t = 0; t < w.threads; ++t) {
      has_collections = has_collections || s->table->count(t) > 0;
    }
    s->oracle.racy_vars.clear();
    if (has_collections) {
      RaceReport report;
      race_pass(*s, compute_intervals(s->poset, s->order), 1, &report);
      s->oracle.racy_vars = racy_vars(report);
    }
    if (opt.fault == "wrong-count") ++s->oracle.states;
  }
  return {};
}

void teardown(Setup* s) {
  if (s->server != nullptr) s->server->stop();
  s->server.reset();
  s->reader.close();
  std::remove(s->trace_path.c_str());
}

// ---- the four paths ----

enum class Path { kOffline, kStreaming, kOnline, kService };
constexpr Path kPaths[] = {Path::kOffline, Path::kStreaming, Path::kOnline,
                           Path::kService};

const char* path_name(Path p) {
  switch (p) {
    case Path::kOffline: return "offline";
    case Path::kStreaming: return "streaming";
    case Path::kOnline: return "online";
    case Path::kService: return "service";
  }
  return "?";
}

struct PathRun {
  std::string error;  // empty on success (oracle checked)
  double seconds = 0.0;
  double rate = 0.0;  // states/s, or events/s for the service path
  pmbench::ServiceResult service;
};

// Runs one pass of `path`. `telemetry` (traced runs) is attached to the
// count paths; for the service path it switches on client-side write timing
// and the idle Polls.
PathRun run_path(Path path, Setup& s,
                 obs::Telemetry* telemetry, SpanLog* log) {
  PathRun run;
  const std::uint64_t events = s.reader.total_events();
  std::string span_name = std::string("path.") + path_name(path);
  if (path == Path::kService) {
    pmbench::ServiceConfig config;
    config.socket_path = s.socket_path;
    config.hello.num_threads = static_cast<std::uint32_t>(s.reader.num_threads());
    config.hello.async_workers = kSessionWorkers;
    config.hello.gc_every = kGcEvery;
    config.poll_every = std::max<std::uint64_t>(1, events / kPollsPerPass);
    config.time_writes = telemetry != nullptr;
    config.idle_polls = telemetry != nullptr ? kIdlePolls : 0;
    {
      Timed span(log, span_name.c_str());
      run.service = pmbench::run_service_pass(s.reader, config);
    }
    if (!run.service.ok) {
      run.error = run.service.error;
      return run;
    }
    const service::CountsBody& c = run.service.drained;
    for (const std::string& why :
         {mismatch("events", c.events, events),
          mismatch("states", c.states, s.oracle.states),
          mismatch("racy_vars", c.racy_vars, s.oracle.racy_vars.size()),
          mismatch("outstanding_pins", c.outstanding_pins, 0)}) {
      if (run.error.empty()) run.error = why;
    }
    run.seconds = run.service.seconds;
    run.rate = static_cast<double>(events) / run.seconds;
    return run;
  }

  std::uint64_t states = 0;
  trace::TraceError error;
  bool ok = false;
  Timed span(log, span_name.c_str());
  if (path == Path::kOnline) {
    OnlineParamount::Options options;
    options.async_workers = kOnlineWorkers;
    options.telemetry = telemetry;
    ok = trace::replay_count_online(s.reader, options, &states, &error);
  } else {
    ParamountOptions options;
    options.num_workers = kEnumWorkers;
    options.telemetry = telemetry;
    ok = path == Path::kOffline
             ? trace::replay_count_offline(s.reader, options, &states, &error)
             : trace::replay_count_streaming(s.reader, options, &states,
                                             &error);
  }
  run.seconds = span.stop();
  if (!ok) {
    run.error = trace_error_text(error);
    return run;
  }
  run.error = mismatch("states", states, s.oracle.states);
  run.rate = static_cast<double>(states) / run.seconds;
  return run;
}

std::size_t telemetry_shards(const Setup& s) {
  return std::max(kEnumWorkers, s.reader.num_threads() + kOnlineWorkers);
}

// ---- end-to-end run (tracing off) ----

void end_to_end(Setup& s, double seconds, Gate& gate,
                std::vector<Metric>& out) {
  std::vector<double> rates[4];
  std::vector<double> poll_ms;
  std::vector<double> drain_ms;
  const WallTimer wall_clock;
  for (int round = 0;
       round < kMinRounds || wall_clock.elapsed_seconds() < seconds; ++round) {
    const std::uint64_t failed_before = gate.failed;
    for (Path p : kPaths) {
      const WallTimer path_clock;
      do {
        PathRun run = run_path(p, s, nullptr, nullptr);
        gate.op(path_name(p), run.error);
        if (!run.error.empty()) break;
        rates[static_cast<int>(p)].push_back(run.rate);
        if (p == Path::kService) {
          poll_ms.insert(poll_ms.end(), run.service.poll_ms.begin(),
                         run.service.poll_ms.end());
          drain_ms.push_back(run.service.drain_ms);
        }
      } while (p != Path::kService &&
               path_clock.elapsed_seconds() < kMinPathSeconds);
    }
    if (gate.failed - failed_before == std::size(kPaths)) break;  // all fail
  }
  const auto push_rate = [&](const char* name, Path p, const char* unit) {
    const std::vector<double>& v = rates[static_cast<int>(p)];
    if (v.empty()) return;
    out.push_back({name, median(v), unit, v.size()});
    std::printf("samples %s", name);
    for (double x : v) std::printf(" %.6g", x);
    std::printf("\n");
  };
  push_rate("offline_states_per_s", Path::kOffline, "states/s");
  push_rate("streaming_states_per_s", Path::kStreaming, "states/s");
  push_rate("online_states_per_s", Path::kOnline, "states/s");
  push_rate("service_events_per_s", Path::kService, "events/s");
  if (!poll_ms.empty()) {
    out.push_back({"service_poll_p50_ms", percentile(poll_ms, 0.5), "ms",
                   poll_ms.size()});
    // p99 of each block of kPollBlock consecutive Polls (ten samples beyond
    // each block's p99), median over the blocks: a slow stretch of the run
    // moves one block, not the whole figure.
    std::vector<double> block_p99;
    for (std::size_t b = 0; b + kPollBlock <= poll_ms.size(); b += kPollBlock) {
      block_p99.push_back(percentile(
          std::vector<double>(poll_ms.begin() + static_cast<std::ptrdiff_t>(b),
                              poll_ms.begin() +
                                  static_cast<std::ptrdiff_t>(b + kPollBlock)),
          0.99));
    }
    if (block_p99.empty()) block_p99.push_back(percentile(poll_ms, 0.99));
    out.push_back({"service_poll_p99_ms", median(block_p99), "ms",
                   poll_ms.size()});
  }
  if (!drain_ms.empty()) {
    out.push_back({"service_drain_ms", median(drain_ms), "ms",
                   drain_ms.size()});
  }
}

// ---- traced run: per-layer metrics ----

// Re-decodes the whole trace into memory (consumers move the clocks out).
bool decode_all(const trace::TraceReader& reader,
                std::vector<trace::TraceEvent>* events, std::string* why) {
  events->clear();
  events->reserve(reader.total_events());
  trace::TraceCursor cursor = reader.cursor();
  trace::TraceError error;
  for (;;) {
    trace::TraceEvent ev;
    const auto status = cursor.next(&ev, &error);
    if (status == trace::TraceCursor::Status::kError) {
      *why = trace_error_text(error);
      return false;
    }
    if (status == trace::TraceCursor::Status::kEnd) return true;
    events->push_back(std::move(ev));
  }
}

void per_layer(Setup& s, double seconds, SpanLog* log, Gate& gate,
               std::vector<Metric>& out) {
  const auto events = static_cast<double>(s.reader.total_events());
  const auto states = static_cast<double>(s.oracle.states);
  const auto add = [&out](const char* name, double value, const char* unit,
                          std::size_t samples = 1) {
    out.push_back({name, value, unit, samples});
  };
  Timed layers_span(log, "layers");

  // trace: TraceCursor::next over the whole file.
  double decode_s = 0.0;
  {
    Timed span(log, "trace.TraceCursor::next");
    trace::TraceCursor cursor = s.reader.cursor();
    trace::TraceEvent ev;
    trace::TraceError error;
    trace::TraceCursor::Status status;
    while ((status = cursor.next(&ev, &error)) ==
           trace::TraceCursor::Status::kOk) {
    }
    decode_s = span.stop();
    gate.op("trace.decode", status == trace::TraceCursor::Status::kEnd
                                ? std::string()
                                : trace_error_text(error));
  }
  add("trace.decode_ns_per_event", decode_s * 1e9 / events, "ns");
  add("trace.bytes_per_event",
      static_cast<double>(s.reader.file_size()) / events, "bytes");

  // poset: replay_to_poset minus the decode pass; core: compute_intervals.
  std::vector<Interval> intervals;
  {
    Poset poset{0};
    std::vector<EventId> order;
    trace::TraceError error;
    Timed span(log, "trace.replay_to_poset");
    const bool ok = trace::replay_to_poset(s.reader, &poset, &order, &error);
    const double build_s = span.stop();
    const std::string why = ok ? mismatch("events", poset.total_events(),
                                          s.poset.total_events())
                               : trace_error_text(error);
    gate.op("poset.build", why);
    if (!why.empty()) return;
    add("poset.build_ns_per_event", (build_s - decode_s) * 1e9 / events, "ns");
    Timed ispan(log, "core.compute_intervals");
    intervals = compute_intervals(poset, order);
    add("core.intervals_ns_per_event", ispan.stop() * 1e9 / events, "ns");
  }

  // poset: OnlinePoset::insert from one thread, no enumeration.
  std::vector<trace::TraceEvent> decoded;
  std::string why;
  if (!decode_all(s.reader, &decoded, &why)) {
    gate.op("poset.insert", why);
    return;
  }
  {
    OnlinePoset poset(s.reader.num_threads());
    Timed span(log, "poset.OnlinePoset::insert");
    for (trace::TraceEvent& ev : decoded) {
      poset.insert(ev.tid, ev.kind, ev.object, std::move(ev.clock));
    }
    add("poset.insert_ns_per_event", span.stop() * 1e9 / events, "ns");
  }

  // core: OnlineParamount::submit (pooled) per call, then drain().
  if (!decode_all(s.reader, &decoded, &why)) {
    gate.op("core.submit", why);
    return;
  }
  {
    OnlineParamount::Options options;
    options.async_workers = kOnlineWorkers;
    OnlineParamount driver(s.reader.num_threads(), options,
                           [](const OnlinePoset&, EventId, const Frontier&) {});
    std::vector<double> submit_ns;
    submit_ns.reserve(decoded.size());
    {
      Timed span(log, "core.OnlineParamount::submit");
      for (trace::TraceEvent& ev : decoded) {
        const auto t0 = std::chrono::steady_clock::now();
        driver.submit(ev.tid, ev.kind, ev.object, std::move(ev.clock));
        submit_ns.push_back(static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count()));
      }
    }
    Timed dspan(log, "core.OnlineParamount::drain");
    driver.drain();
    add("core.drain_ms", dspan.stop() * 1e3, "ms");
    add("core.submit_ns_p50", percentile(submit_ns, 0.5), "ns",
        submit_ns.size());
    add("core.submit_ns_p99", percentile(submit_ns, 0.99), "ns",
        submit_ns.size());
    gate.op("core.online_layer",
            mismatch("states", driver.states_enumerated(), s.oracle.states));
  }
  decoded = {};

  // enumeration: serial lexical pass over every interval.
  double lexical_s = 0.0;
  std::vector<std::uint64_t> interval_states(intervals.size());
  {
    Timed span(log, "enumeration.enumerate_box(kLexical)");
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < intervals.size(); ++i) {
      const Interval& iv = intervals[i];
      interval_states[i] = enumerate_box(EnumAlgorithm::kLexical, s.poset,
                                         iv.gmin, iv.gbnd,
                                         [](const Frontier&) {})
                               .states;
      total += interval_states[i];
    }
    lexical_s = span.stop();
    // The empty state belongs to no interval; the drivers visit it once.
    gate.op("enumeration.lexical",
            mismatch("states", total + 1, s.oracle.states));
  }
  const double lexical_ns = lexical_s * 1e9 / states;
  add("enumeration.lexical_ns_per_state", lexical_ns, "ns");

  // enumeration: BFS with a private set and with a StateStore over a fixed
  // subset of intervals (every k-th, skipping any larger than the subset).
  {
    const std::size_t n = s.reader.num_threads();
    std::size_t slots = 1;
    while (slots * 2 * (8 + 4 * n) <= kBfsStoreBytes) slots *= 2;
    const std::uint64_t cap = slots / 2;
    const std::uint64_t stride = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(states) / cap);
    std::vector<std::size_t> subset;
    std::uint64_t subset_states = 0;
    for (std::size_t i = 0; i < intervals.size(); i += stride) {
      if (subset_states + interval_states[i] > cap) continue;
      subset.push_back(i);
      subset_states += interval_states[i];
    }
    std::uint64_t private_states = 0;
    std::uint64_t store_states = 0;
    Timed span(log, "enumeration.enumerate_box(kBfs)");
    for (std::size_t i : subset) {
      private_states += enumerate_box(EnumAlgorithm::kBfs, s.poset,
                                      intervals[i].gmin, intervals[i].gbnd,
                                      [](const Frontier&) {})
                            .states;
    }
    const double bfs_s = span.stop();
    StateStore store = StateStore::with_budget(n, kBfsStoreBytes);
    Timed sspan(log, "enumeration.enumerate_box(kBfs, StateStore)");
    for (std::size_t i : subset) {
      store_states += enumerate_box(EnumAlgorithm::kBfs, s.poset,
                                    intervals[i].gmin, intervals[i].gbnd,
                                    [](const Frontier&) {}, nullptr, &store)
                          .states;
    }
    const double store_s = sspan.stop();
    gate.op("enumeration.bfs",
            mismatch("bfs states", private_states, subset_states) +
                mismatch("bfs store states", store_states, subset_states));
    const auto per = [&](double sec) {
      return subset_states == 0 ? 0.0 : sec * 1e9 / subset_states;
    };
    add("enumeration.bfs_ns_per_state", per(bfs_s), "ns", subset_states);
    add("enumeration.bfs_store_ns_per_state", per(store_s), "ns",
        subset_states);
  }

  // detect: check_races per state, alone and with 3 threads sharing one
  // RaceReport; the lexical walk's own cost is subtracted.
  {
    RaceReport single;
    double single_s = 0.0;
    {
      Timed span(log, "detect.check_races(1 thread)");
      race_pass(s, intervals, 1, &single);
      single_s = span.stop();
    }
    RaceReport shared;
    double shared_s = 0.0;
    {
      Timed span(log, "detect.check_races(3 threads)");
      race_pass(s, intervals, kEnumWorkers, &shared);
      shared_s = span.stop();
    }
    gate.op("detect.check_races",
            (racy_vars(single) == s.oracle.racy_vars &&
             racy_vars(shared) == s.oracle.racy_vars)
                ? std::string()
                : std::string("racy var set differs from the oracle"));
    add("detect.check_ns_per_state", single_s * 1e9 / states - lexical_ns,
        "ns");
    add("detect.check_contended_ns_per_state",
        static_cast<double>(kEnumWorkers) * shared_s * 1e9 / states -
            lexical_ns,
        "ns");
  }

  // service: encode_event / decode_frame over the trace's frames.
  {
    const std::size_t n = s.reader.num_threads();
    std::vector<service::EventBody> bodies;
    bodies.reserve(s.reader.total_events());
    std::vector<VectorClock> prev(n, VectorClock(n));
    trace::TraceCursor cursor = s.reader.cursor();
    trace::TraceEvent ev;
    trace::TraceError error;
    while (cursor.next(&ev, &error) == trace::TraceCursor::Status::kOk) {
      service::EventBody body;
      body.tid = ev.tid;
      body.kind = ev.kind;
      body.object = ev.object;
      for (std::size_t j = 0; j < n; ++j) {
        if (ev.clock[j] != prev[ev.tid][j]) {
          body.delta.push_back({static_cast<std::uint32_t>(j), ev.clock[j]});
        }
      }
      prev[ev.tid] = ev.clock;
      for (const trace::TraceAccess& a : ev.accesses) {
        body.accesses.push_back({a.var, a.is_write, a.is_init});
      }
      bodies.push_back(std::move(body));
    }
    std::vector<std::vector<std::uint8_t>> payloads;
    payloads.reserve(bodies.size());
    Timed espan(log, "service.encode_event");
    for (const service::EventBody& body : bodies) {
      payloads.push_back(service::encode_event(body));
    }
    const double encode_s = espan.stop();
    service::DecodedFrame frame;
    std::uint64_t bad = 0;
    std::uint64_t wire_bytes = 0;
    Timed dspan(log, "service.decode_frame");
    for (const std::vector<std::uint8_t>& p : payloads) {
      bad += service::decode_frame(p, &frame).has_value() ? 1 : 0;
      wire_bytes += p.size() + 8;  // v2 frame header: length + stream id
    }
    const double decode_frame_s = dspan.stop();
    gate.op("service.codec", mismatch("undecodable frames", bad, 0) +
                                 mismatch("frames", payloads.size(),
                                          s.reader.total_events()));
    add("service.encode_ns_per_event", encode_s * 1e9 / events, "ns");
    add("service.decode_ns_per_frame", decode_frame_s * 1e9 / events, "ns");
    add("service.wire_bytes_per_event",
        static_cast<double>(wire_bytes) / events, "bytes");
  }

  // Traced vs untraced passes of every path, alternating, until the
  // deadline: obs.overhead_frac, the pooled/stealing telemetry, the
  // service's backpressure share, idle Poll floor and resident bytes.
  obs::HistogramSnapshot queue_wait;
  std::uint64_t steals = 0, steal_fail = 0, claimed_intervals = 0;
  std::vector<double> rates[4][2];  // [path][traced]
  std::vector<double> blocked, idle_us, offline_s;
  std::uint64_t resident_max = 0;
  std::uint64_t service_racy = 0;
  std::vector<double> busy, max_share;
  const WallTimer wall_clock;
  for (int round = 0; round < 2 || wall_clock.elapsed_seconds() < seconds;
       ++round) {
    for (Path p : kPaths) {
      for (int traced = 0; traced < 2; ++traced) {
        const bool on = (traced + round) % 2 == 1;  // alternate which first
        std::unique_ptr<obs::Telemetry> telemetry =
            on ? std::make_unique<obs::Telemetry>(telemetry_shards(s))
               : nullptr;
        PathRun run = run_path(p, s, telemetry.get(), log);
        gate.op(path_name(p), run.error);
        if (!run.error.empty()) continue;
        rates[static_cast<int>(p)][on ? 1 : 0].push_back(run.rate);
        if (p == Path::kOffline && !on) offline_s.push_back(run.seconds);
        if (!on) continue;
        if (p == Path::kService) {
          blocked.push_back(run.service.write_seconds /
                            run.service.stream_seconds);
          idle_us.insert(idle_us.end(), run.service.idle_poll_us.begin(),
                         run.service.idle_poll_us.end());
          resident_max = std::max(resident_max, run.service.resident_max);
          service_racy = run.service.drained.racy_vars;
          continue;
        }
        const obs::MetricsSnapshot snap = telemetry->snapshot();
        if (const auto* h = snap.find_histogram("pool.queue_wait_ns")) {
          queue_wait.count += h->count;
          for (std::size_t b = 0; b < obs::kHistogramBuckets; ++b) {
            queue_wait.buckets[b] += h->buckets[b];
          }
        }
        const auto counter = [&snap](const char* name) -> std::uint64_t {
          const auto* c = snap.find_counter(name);
          return c == nullptr ? 0 : c->total;
        };
        steals += counter("pool.steals");
        steal_fail += counter("pool.steal_fail");
        claimed_intervals += counter("paramount.intervals");
      }
    }
    // core.busy_frac / max_interval_share: the offline driver's own
    // per-interval stats, the same enumerate_paramount call
    // replay_count_offline makes.
    ParamountOptions options;
    options.num_workers = kEnumWorkers;
    options.collect_interval_stats = true;
    Timed span(log, "core.enumerate_paramount(interval stats)");
    const ParamountResult result =
        enumerate_paramount(s.poset, options, [](const Frontier&) {});
    const double wall = span.stop();
    double sum_ns = 0.0;
    std::uint64_t largest = 0;
    for (const IntervalStat& st : result.interval_stats) {
      sum_ns += static_cast<double>(st.nanos);
      largest = std::max(largest, st.states);
    }
    busy.push_back(sum_ns / (kEnumWorkers * wall * 1e9));
    max_share.push_back(static_cast<double>(largest) / states);
  }

  add("core.busy_frac", median(busy), "ratio", busy.size());
  add("core.max_interval_share", median(max_share), "count", max_share.size());
  add("core.parallel_speedup", lexical_s / median(offline_s), "ratio",
      offline_s.size());
  add("util.pool_queue_wait_p99_ns",
      queue_wait.count == 0 ? 0.0 : queue_wait.quantile(0.99), "ns",
      queue_wait.count);
  add("util.steals_per_interval",
      claimed_intervals == 0 ? 0.0
                             : static_cast<double>(steals) / claimed_intervals,
      "ratio", claimed_intervals);
  add("util.steal_success_frac",
      steals + steal_fail == 0
          ? 0.0
          : static_cast<double>(steals) / static_cast<double>(steals + steal_fail),
      "ratio", steals + steal_fail);
  add("detect.racy_vars", static_cast<double>(service_racy), "count");
  add("service.client_blocked_frac", median(blocked), "ratio", blocked.size());
  add("service.poll_idle_us", median(idle_us), "us", idle_us.size());
  add("poset.resident_bytes_max", static_cast<double>(resident_max), "bytes");
  static const char* const kOverhead[] = {
      "obs.overhead_frac.offline", "obs.overhead_frac.streaming",
      "obs.overhead_frac.online", "obs.overhead_frac.service"};
  for (Path p : kPaths) {
    const auto& r = rates[static_cast<int>(p)];
    if (r[0].empty() || r[1].empty()) continue;
    add(kOverhead[static_cast<int>(p)], 1.0 - median(r[1]) / median(r[0]),
        "ratio", std::min(r[0].size(), r[1].size()));
  }
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags(
      "pmbench — ParaMount end-to-end (--trace=0) and per-layer (--trace=1) "
      "benchmark for one workload and seed");
  flags.add_string("workload", "", "dense-fanin | convoy-8 | convoy-64 | race-hotvar");
  flags.add_int("seed", 1, "workload seed (the trace is generated from it)");
  flags.add_int("seconds", 10, "measurement length in seconds");
  flags.add_int("trace", 0, "1 = traced per-layer run");
  flags.add_string("out-dir", ".bench_out", "directory for traces, sockets and spans");
  flags.add_double("scale", 1.0, "trace size multiplier (smoke tests)");
  flags.add_string("fault", "", "test hook: corrupt-trace | wrong-count");
  if (!flags.parse(argc, argv)) return 0;

  RunOptions opt;
  opt.workload = find_workload(flags.get_string("workload"));
  if (opt.workload == nullptr) {
    std::fprintf(stderr, "pmbench: unknown --workload '%s'\n",
                 flags.get_string("workload").c_str());
    return 2;
  }
  opt.seed = static_cast<std::uint64_t>(
      flags.get_int_in_range("seed", 0, std::int64_t{1} << 62));
  const double seconds =
      static_cast<double>(flags.get_int_in_range("seconds", 1, 3600));
  const bool traced = flags.get_int_in_range("trace", 0, 1) == 1;
  const double scale = flags.get_double("scale");
  if (!(scale > 0.0 && scale <= 100.0)) {
    std::fprintf(stderr, "pmbench: --scale must be in (0, 100]\n");
    return 2;
  }
  opt.scale = scale;
  opt.events = std::max<std::uint64_t>(
      64, static_cast<std::uint64_t>(std::llround(
              static_cast<double>(opt.workload->events) * scale)));
  opt.out_dir = flags.get_string("out-dir");
  opt.fault = flags.get_string("fault");
  if (!opt.fault.empty() && opt.fault != "corrupt-trace" &&
      opt.fault != "wrong-count") {
    std::fprintf(stderr, "pmbench: unknown --fault '%s'\n", opt.fault.c_str());
    return 2;
  }

  // Run id: distinct per (workload, seed, process) so merged span files
  // stay separable.
  const std::uint64_t run_id = (opt.seed << 20) ^
                               static_cast<std::uint64_t>(::getpid());
  std::unique_ptr<SpanLog> log =
      traced ? std::make_unique<SpanLog>(run_id) : nullptr;

  Gate gate;
  std::vector<Metric> metrics;
  std::vector<double> setup_s;
  Setup setup;
  bool setup_ok = false;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (rep > 0) teardown(&setup);
    Timed span(log.get(), "setup");
    const std::string why = build_setup(opt, log.get(), &setup);
    setup_s.push_back(span.stop());
    gate.op("setup", why);
    setup_ok = why.empty();
    if (!setup_ok) break;
  }
  const Workload& w = *opt.workload;
  if (setup_ok && std::string(w.scenario) == "lock-convoy") {
    gate.op("oracle", mismatch("lock-convoy states", setup.oracle.states,
                               setup.reader.total_events() + 1));
  }
#ifdef __clang__
  std::printf("info compiler clang-%s\n", __clang_version__);
#else
  std::printf("info compiler gcc-%s\n", __VERSION__);
#endif
  std::printf("info build_type %s\n", PMBENCH_BUILD_TYPE);
  std::printf("info scenario_seed %" PRIu64 "\n", setup.scenario_seed);
  std::printf("info events %" PRIu64 "\n", setup.reader.total_events());
  std::printf("info states %" PRIu64 "\n", setup.oracle.states);
  std::printf("info racy_vars %zu\n", setup.oracle.racy_vars.size());
  std::printf("info trace_bytes %" PRIu64 "\n", setup.reader.file_size());

  if (setup_ok) {
    if (traced) {
      per_layer(setup, seconds, log.get(), gate, metrics);
    } else {
      end_to_end(setup, seconds, gate, metrics);
    }
  }
  if (setup.server != nullptr) {
    setup.server->stop();
    const service::ServerStats st = setup.server->stats();
    std::string why = mismatch("protocol_errors", st.protocol_errors, 0) +
                      mismatch("leaked_pins", st.leaked_pins, 0);
    if (why.empty() && st.sessions_completed > 0 && opt.fault.empty() &&
        st.last_racy_vars != setup.oracle.racy_vars) {
      why = "last session's racy var set differs from the oracle";
    }
    gate.op("server.stop", why);
  }
  teardown(&setup);

  if (!traced) {
    metrics.push_back({"peak_rss_mb",
                       static_cast<double>(peak_rss_bytes()) / (1 << 20),
                       "MiB", 1});
    metrics.push_back({"setup_s", median(setup_s), "s", setup_s.size()});
  } else {
    const std::string path = opt.out_dir + "/" + w.name + "-" +
                             std::to_string(opt.seed) + ".trace.json";
    if (log->write_chrome_trace(path)) {
      std::printf("info span_file %s\n", path.c_str());
      std::printf("info spans %zu\n", log->size());
    } else {
      gate.op("spans", "cannot write " + path);
    }
  }
  for (const Metric& m : metrics) {
    std::printf("metric %s %.17g %s %zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  std::printf("ops %" PRIu64 " %" PRIu64 "\n", gate.attempted, gate.failed);
  return gate.failed == 0 ? 0 : 1;
}
