// EpollServer: paramountd's server. Every connection runs on ONE reactor
// thread: non-blocking FrameChannels, sessions as readiness-driven
// SessionCore state machines, interval work still handed to each
// detector's work-stealing pool. The v2 frame header's stream id lets one
// connection carry many logical sessions — a fleet-wide collector can
// multiplex thousands of enumeration streams over a few sockets.
//
// Listener: Unix path or TCP ("tcp:HOST:PORT"), same wire protocol either
// way — the oracle-differential tests run bit-identical over both.
//
// Backpressure without blocking the loop: a session whose submit budget is
// full returns kBlocked with the event stashed; the connection's reads are
// disarmed and the SubmitGate's release wakes the loop (post) to retry.
// With Options::tenant_budget_bytes set, sessions sharing a Hello tenant_id
// share one gate — a flooding tenant stalls its own streams, not the
// daemon. Per-connection read quanta (kReadQuantum frames per readiness
// dispatch) keep one hot connection from starving the rest, which is what
// holds p99 Poll latency flat as idle-session count grows.
//
// Close semantics per stream: a session on stream 0 (the plain
// one-session-per-connection client) closes the connection when it ends;
// sessions on nonzero streams come and go while the connection stays up.
//
// Closing a connection is one sequence, whatever ended it: finish every
// session on it (pins released, ServerStats counted), flush buffered
// replies, shutdown(SHUT_WR) so the peer reads EOF right after the last
// reply, then discard input until the peer's EOF, kLingerDiscardBytes, or
// kLingerTimeout, and only then close(). Closing with unread input would
// make the kernel reset the connection, and a reset can destroy a typed
// Error frame the peer has not read yet. The linger never blocks the
// reactor: the connection stays registered in a closing state and a loop
// timer enforces the deadline. A transport error skips the linger, and
// stop() closes every connection at once.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "service/channel.hpp"
#include "service/event_loop.hpp"
#include "service/session.hpp"
#include "util/submit_gate.hpp"
#include "util/sync.hpp"

namespace paramount::service {

struct ServerStats {
  std::uint64_t connections_accepted = 0;  // accept() successes (< sessions
                                           // when a connection multiplexes
                                           // streams)
  std::uint64_t sessions_accepted = 0;
  std::uint64_t sessions_completed = 0;
  // Admission refusals over --max-sessions. Deliberately NOT counted as
  // protocol_errors: the client spoke the protocol correctly and the server
  // turned it away — conflating the two made "protocol_errors: 0" useless
  // as a client-correctness check whenever the limiter engaged.
  std::uint64_t sessions_rejected = 0;
  std::uint64_t clean_shutdowns = 0;     // ended via Shutdown/Goodbye
  std::uint64_t protocol_errors = 0;     // in-session Error frames sent
  std::uint64_t frames = 0;              // well-formed frames handled
  std::uint64_t leaked_pins = 0;         // sum of final outstanding_pins
  std::uint64_t submit_stalls = 0;       // backpressure engagements, summed
  CountsBody last_session;               // final counts of the last session
  std::vector<VarId> last_racy_vars;     // last session's race-report vars
};

class EpollServer {
 public:
  struct Options {
    Endpoint endpoint;
    std::uint32_t max_sessions = 1024;    // live streams, across connections
    std::size_t submit_budget_bytes = 0;  // per-session gate (0 = off)
    // Nonzero switches admission to shared per-tenant gates of this budget
    // (sessions grouped by Hello::tenant_id).
    std::size_t tenant_budget_bytes = 0;
    std::uint64_t eviction_alert_threshold = 0;  // Stats alert (0 = off)
    std::size_t state_store_budget_bytes = 0;  // per-session store (0 = off)
    int backlog = 128;
  };

  explicit EpollServer(Options options) : options_(std::move(options)) {}
  ~EpollServer() { stop(); }

  EpollServer(const EpollServer&) = delete;
  EpollServer& operator=(const EpollServer&) = delete;

  // Binds, starts the reactor thread. Returns false with *error (and *why
  // for the Unix live-listener refusal) on failure.
  bool start(std::string* error, ListenUnixError* why = nullptr);

  // Idempotent: stops the loop, finishes every live session (draining
  // detectors, releasing pins), closes every connection at once — closing
  // ones included.
  void stop();

  // The bound TCP port (resolves port 0 for tests/bench); 0 for Unix.
  std::uint16_t tcp_port() const { return tcp_port_; }

  ServerStats stats() const;

  // Blocks until at least `n` sessions have completed (or the timeout
  // expires; returns false then). The tests' sanctioned alternative to
  // sleep-polling the stats.
  bool wait_sessions_completed(std::uint64_t n,
                               std::chrono::milliseconds timeout) const;

 private:
  // Bounds on a closing connection: input discarded after the last reply,
  // and how long it may stay open waiting for the peer's EOF.
  static constexpr std::size_t kLingerDiscardBytes = std::size_t{1} << 20;
  static constexpr std::chrono::milliseconds kLingerTimeout{2000};

  // All Connection state is loop-thread-only (stop() touches it only after
  // joining the loop thread).
  struct Connection {
    explicit Connection(UniqueFd fd) : channel(std::move(fd)) {}
    FrameChannel channel;
    std::unordered_map<std::uint32_t, std::unique_ptr<SessionCore>> streams;
    // Streams refused at --max-sessions: the typed Error went out once;
    // later frames for them are dropped silently instead of re-erroring.
    std::unordered_set<std::uint32_t> rejected_streams;
    // Nonzero iff a stream's submission is gate-blocked: reads stay
    // disarmed until retry_pending() wins admission.
    bool blocked = false;
    std::uint32_t blocked_stream = 0;
    // The graceful close (see the header comment): set once every session
    // here is finished; reads only discard input from then on.
    bool closing = false;
    bool write_shut = false;  // shutdown(SHUT_WR) sent
    bool peer_eof = false;    // the peer's EOF read while discarding
    std::size_t discard_budget = kLingerDiscardBytes;
  };

  // Frames drained per readiness dispatch before yielding to other
  // connections — the fairness quantum.
  static constexpr int kReadQuantum = 64;

  // Ceiling on rejected_streams per connection. Re-rejecting is cheap but
  // the tracking set is not free: a client at --max-sessions spraying
  // frames across distinct stream ids would otherwise grow it (one entry +
  // one Error frame per id) without bound from a single connection. A
  // legitimate multiplexer backs off after a handful of refusals; past the
  // cap the connection is closed.
  static constexpr std::size_t kMaxRejectedStreams = 32;

  void loop_main();
  void on_acceptable();
  void on_connection_ready(std::uint64_t conn_id, std::uint32_t ready);
  void read_quantum(const std::shared_ptr<Connection>& conn,
                    std::uint64_t conn_id);
  // Routes one decoded-enough frame (payload + stream id); returns false
  // when the connection must be torn down.
  bool dispatch_frame(const std::shared_ptr<Connection>& conn,
                      std::uint64_t conn_id, std::uint32_t stream_id,
                      std::span<const std::uint8_t> payload);
  SessionCore* open_stream(const std::shared_ptr<Connection>& conn,
                           std::uint64_t conn_id, std::uint32_t stream_id);
  // A session on `stream_id` ended: stream 0 takes the connection with it.
  void end_stream(std::uint64_t conn_id, Connection& conn,
                  std::uint32_t stream_id);
  void finish_stream(Connection& conn, std::uint32_t stream_id);
  void finish_session(SessionCore& core);
  // Finishes every session on `conn`; a fatal `why` first gets the typed
  // farewell (truncated/oversized Error frames).
  void finish_streams(Connection& conn, ReadStatus why);
  void update_interest(Connection& conn);
  // Finishes the connection's sessions, then closes it: gracefully (the
  // linger sequence) unless `why` is a transport error.
  void teardown(std::uint64_t conn_id, ReadStatus why);
  // One step of the graceful close, run on every readiness event of a
  // closing connection.
  void advance_close(std::uint64_t conn_id, std::uint32_t ready);
  void close_now(std::uint64_t conn_id);
  void retry_blocked(std::uint64_t conn_id);
  std::shared_ptr<SubmitGate> gate_for(const HelloBody& hello);

  Options options_;
  UniqueFd listener_;
  std::uint16_t tcp_port_ = 0;
  std::string bound_unix_path_;  // unlinked on stop
  std::unique_ptr<EventLoop> loop_;
  std::thread loop_thread_;
  bool started_ = false;

  // Loop-thread-only:
  std::unordered_map<std::uint64_t, std::shared_ptr<Connection>> connections_;
  std::unordered_map<std::uint32_t, std::weak_ptr<SubmitGate>> tenant_gates_;
  std::uint64_t next_conn_id_ = 1;
  std::uint64_t next_session_id_ = 1;
  std::uint64_t live_sessions_ = 0;

  mutable Mutex stats_mutex_;
  mutable CondVar stats_cv_;
  ServerStats stats_ PM_GUARDED_BY(stats_mutex_);
};

}  // namespace paramount::service
