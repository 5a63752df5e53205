// One paramountd client session: the frame-level state machine that turns an
// event stream into OnlineRaceDetector submissions.
//
// States: AwaitHello → Streaming → Closed. Every input byte is untrusted:
// decode errors and semantic violations (bad tid, clock regression,
// references to unpublished events) are answered with a typed Error frame
// and a clean close — the validation here is deliberately at least as strong
// as OnlinePoset::insert()'s PM_CHECKs, so no byte stream can reach an
// abort. Whatever way a session ends (Shutdown handshake, plain EOF, a
// protocol error, or the peer dying mid-frame), finish() drains in-flight
// intervals and runs a final collect(), so every EnumGuard pin is released
// and the final counts are exact.
//
// The logic lives in SessionCore, which is transport-free: it consumes
// decoded payloads and emits reply frames through a send callback. The
// epoll server (service/epoll_server.hpp) drives one SessionCore per
// multiplexed stream. Submit backpressure never blocks: a full submit
// budget, or a windowed pooled driver at its in-flight interval cap
// (OnlineParamount::in_flight_cap), returns kBlocked with the event
// stashed; the release wakes the loop, which calls retry_pending() and
// resumes reading that connection.
//
// The reactor thread is the only one that feeds any given SessionCore, so
// the core owns all program-thread telemetry shards (0..num_threads-1);
// pooled enumeration workers write the shards above — the
// single-writer-per-shard contract holds with one Telemetry per session.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "detect/online_detector.hpp"
#include "obs/telemetry.hpp"
#include "poset/clock_validator.hpp"
#include "service/channel.hpp"
#include "service/frame.hpp"
#include "util/state_store.hpp"
#include "util/submit_gate.hpp"

namespace paramount::service {

// Per-event budget charged against the submit gate: a conservative estimate
// of what one queued interval holds resident (event + clock + task).
std::size_t event_cost_bytes(std::size_t num_threads);

class SessionCore {
 public:
  struct Limits {
    std::uint32_t max_threads = 512;    // Hello::num_threads ceiling
    std::uint32_t max_workers = 64;     // Hello::async_workers ceiling
    // Stats replies flag eviction_alert once window_evictions reaches this
    // (0 = alerting off); the daemon's --eviction-alert flag.
    std::uint64_t eviction_alert_threshold = 0;
    // Per-session shared StateStore budget (the daemon's --state-store
    // flag). 0 = private per-interval working sets. When set, the session's
    // interval subroutines intern into one bounded store; filling it is
    // answered with a typed kStateStoreFull Error frame and a clean close —
    // never an abort, and finish() still drains so no pin leaks.
    std::size_t state_store_budget_bytes = 0;
  };

  struct Result {
    CountsBody counts;           // final, exact (post-drain) counts
    std::vector<VarId> racy_vars;  // sorted; the exact race-report var set
    std::uint64_t frames = 0;    // well-formed frames handled
    std::uint64_t protocol_errors = 0;  // Error frames sent
    std::uint64_t submit_stalls = 0;  // submissions that had to wait
                                      // (budget or in-flight cap)
    bool hello_seen = false;
    bool clean_shutdown = false;  // ended via the Shutdown/Goodbye handshake
  };

  // What the caller must do next after feeding the core.
  enum class Disposition {
    kContinue,  // keep reading
    kClose,     // session over (Goodbye sent, Error sent, or transport dead)
    kBlocked,   // submit budget full or driver at its in-flight cap: event
                // stashed; stop reading this session and call
                // retry_pending() after the gate-ready hook fires
  };

  // Emits one reply frame; returns false when the transport is dead (the
  // core then treats the session as closed). The callback owns framing —
  // the core never sees a socket.
  using SendFn = std::function<bool(std::span<const std::uint8_t>)>;

  // Supplies the submit gate once Hello arrives: a private per-session gate,
  // or one shared by every session of the Hello's tenant. Null → an
  // unbounded gate.
  using GateProvider =
      std::function<std::shared_ptr<SubmitGate>(const HelloBody&)>;

  SessionCore(std::uint64_t session_id, Limits limits, SendFn send)
      : session_id_(session_id), limits_(limits), send_(std::move(send)) {}

  SessionCore(const SessionCore&) = delete;
  SessionCore& operator=(const SessionCore&) = delete;

  // Optional hooks, set before the first payload:
  void set_gate_provider(GateProvider provider) {
    gate_provider_ = std::move(provider);
  }
  // Invoked (from SubmitGate::release, any thread — a pool worker retiring
  // an interval) when budget or an in-flight slot may have freed after a
  // kBlocked; the owner schedules retry_pending().
  void set_gate_ready(std::function<void()> on_ready) {
    gate_ready_ = std::move(on_ready);
  }

  std::uint64_t session_id() const { return session_id_; }

  // Feeds one frame payload (undecoded bytes; the core decodes). Never
  // throws, never aborts on malformed input.
  Disposition on_payload(std::span<const std::uint8_t> payload);

  // Maps a transport-level read failure to its protocol reaction (typed
  // Error for truncated/oversized, silent close otherwise). kFrame and
  // kWouldBlock are not transport failures.
  Disposition on_transport_status(ReadStatus status);

  // Re-attempts the stashed event after a kBlocked. Returns kBlocked again
  // if the budget is still full (the gate callback re-queues), kContinue
  // once submitted.
  Disposition retry_pending();
  bool has_pending_event() const { return pending_.has_value(); }

  bool closed() const { return state_ == State::kClosed; }

  // Drains the detector, runs a final collect(), and seals result().
  // Idempotent; called automatically when the protocol closes the session,
  // and by owners on teardown/disconnect.
  void finish();

  const Result& result() const { return result_; }

 private:
  enum class State { kAwaitHello, kStreaming, kClosed };

  // A validated event waiting on submit budget: clock
  // already reconstructed and checked, but nothing committed — retry is
  // idempotent.
  struct PendingEvent {
    EventBody body;
    VectorClock clock;
  };

  // Frame handlers; each returns the next disposition.
  Disposition handle_frame(const DecodedFrame& frame);
  Disposition handle_hello(const HelloBody& body);
  Disposition handle_event(const EventBody& body);
  Disposition handle_poll();
  Disposition handle_drain();
  Disposition handle_shutdown();

  // Admits pending_ against the gate and, on success, commits it.
  Disposition submit_pending();
  // The post-admission half: access-table append, clock commit, on_event.
  void commit_event(const EventBody& body, const VectorClock& clock);

  // Sends a typed Error frame (best effort) and counts it.
  void send_error(ErrorCode code, const std::string& message);

  // Checks the driver's store-full latch at a reply point (this thread is
  // the session's only frame writer, so the Error frame cannot interleave
  // with a reply). Returns kClose (after sending kStateStoreFull) when the
  // latch is set, kContinue otherwise.
  Disposition check_store_full();

  Disposition close(Disposition why = Disposition::kClose);

  CountsBody current_counts();

  const std::uint64_t session_id_;
  const Limits limits_;
  SendFn send_;
  GateProvider gate_provider_;
  std::function<void()> gate_ready_;

  State state_ = State::kAwaitHello;
  Result result_;
  bool finished_ = false;

  // Established by Hello:
  std::uint32_t num_threads_ = 0;
  bool windowed_ = false;  // gc_every or window_bytes set: collect on drain
  std::size_t event_cost_ = 0;
  std::unique_ptr<obs::Telemetry> telemetry_;
  std::unique_ptr<AccessTable> access_table_;
  std::shared_ptr<SubmitGate> gate_;
  // Declared before detector_: pooled workers intern into the store until
  // the detector (destroyed first, reverse member order) has drained.
  std::unique_ptr<StateStore> store_;
  std::unique_ptr<OnlineRaceDetector> detector_;
  // Shared wire/trace clock checker (poset/clock_validator.hpp): enforces
  // the same invariants OnlinePoset::insert() PM_CHECKs, as typed errors.
  std::unique_ptr<ClockValidator> validator_;
  std::uint64_t events_accepted_ = 0;
  std::optional<PendingEvent> pending_;
};

}  // namespace paramount::service
