// The benchmark's paramountd client: one connection that replays a .pmt
// trace as Event frames, the way `paramount-client --trace-file` does.
//
// Closed loop: events are written as fast as the server's SubmitGate
// backpressure lets the socket drain, a Poll goes out every `poll_every`
// events and the client waits for its Stats reply before sending more, and
// the pass ends with Drain → Drained, then Shutdown → Goodbye → EOF.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "service/frame.hpp"
#include "trace/trace_reader.hpp"

namespace pmbench {

struct ServiceConfig {
  std::string socket_path;
  paramount::service::HelloBody hello;
  std::uint64_t poll_every = 0;
  // Traced run only: time spent inside FrameChannel::write_frame while the
  // events stream (the backpressure share) and Polls on the idle session.
  bool time_writes = false;
  int idle_polls = 0;
};

struct ServiceResult {
  bool ok = false;
  std::string error;            // typed failure, empty when ok
  double seconds = 0.0;         // Hello sent → Drained received
  double drain_ms = 0.0;        // last Event written → Drained received
  double stream_seconds = 0.0;  // first Event → last Event written
  double write_seconds = 0.0;   // inside write_frame (time_writes only)
  std::vector<double> poll_ms;  // Poll → Stats while the stream flows
  std::vector<double> idle_poll_us;  // Poll → Stats on the drained session
  std::uint64_t events_sent = 0;
  std::uint64_t resident_max = 0;  // max resident_bytes in Stats/Drained
  paramount::service::CountsBody drained;
};

ServiceResult run_service_pass(const paramount::trace::TraceReader& reader,
                               const ServiceConfig& config);

}  // namespace pmbench
