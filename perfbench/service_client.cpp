#include "service_client.hpp"

#include <algorithm>
#include <chrono>

#include "service/channel.hpp"

namespace pmbench {

using namespace paramount;
using namespace paramount::service;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Reads the next frame and requires it to be `op`. Error frames, transport
// failures and undecodable or unexpected frames all end the pass typed.
bool expect(FrameChannel& channel, Op op, DecodedFrame* frame,
            std::string* error) {
  std::vector<std::uint8_t> payload;
  const ReadStatus status = channel.read_frame(&payload);
  if (status != ReadStatus::kFrame) {
    *error = std::string("transport: ") + to_string(status) + " awaiting " +
             to_string(op);
    return false;
  }
  if (const auto bad = decode_frame(payload, frame)) {
    *error = "protocol: undecodable reply: " + bad->message;
    return false;
  }
  if (frame->op == Op::kError) {
    *error = std::string("error frame [") + to_string(frame->error.code) +
             "]: " + frame->error.message;
    return false;
  }
  if (frame->op != op) {
    *error = std::string("protocol: expected ") + to_string(op) + ", got " +
             to_string(frame->op);
    return false;
  }
  return true;
}

}  // namespace

ServiceResult run_service_pass(const trace::TraceReader& reader,
                               const ServiceConfig& config) {
  ServiceResult result;
  std::string error;
  FrameChannel channel(connect_unix(config.socket_path, &error));
  if (channel.fd() < 0) {
    result.error = "transport: connect: " + error;
    return result;
  }
  const auto fail = [&result](std::string why) {
    result.error = std::move(why);
    return result;
  };

  const Clock::time_point hello_sent = Clock::now();
  DecodedFrame frame;
  if (!channel.write_frame(encode_hello(config.hello))) {
    return fail("transport: Hello send failed");
  }
  if (!expect(channel, Op::kHelloAck, &frame, &error)) return fail(error);

  const std::size_t n = reader.num_threads();
  std::vector<VectorClock> prev(n, VectorClock(n));
  trace::TraceCursor cursor = reader.cursor();
  trace::TraceEvent ev;
  trace::TraceError trace_error;
  EventBody body;
  const Clock::time_point stream_start = Clock::now();
  for (;;) {
    const trace::TraceCursor::Status status = cursor.next(&ev, &trace_error);
    if (status == trace::TraceCursor::Status::kError) {
      return fail("trace: " + trace_error.to_string());
    }
    if (status == trace::TraceCursor::Status::kEnd) break;
    body.tid = ev.tid;
    body.kind = ev.kind;
    body.object = ev.object;
    body.delta.clear();
    for (std::size_t j = 0; j < n; ++j) {
      if (ev.clock[j] != prev[ev.tid][j]) {
        body.delta.push_back({static_cast<std::uint32_t>(j), ev.clock[j]});
      }
    }
    prev[ev.tid] = ev.clock;
    body.accesses.clear();
    for (const trace::TraceAccess& a : ev.accesses) {
      body.accesses.push_back(AccessRecord{a.var, a.is_write, a.is_init});
    }
    const std::vector<std::uint8_t> payload = encode_event(body);
    bool sent = false;
    if (config.time_writes) {
      const Clock::time_point w0 = Clock::now();
      sent = channel.write_frame(payload);
      result.write_seconds += seconds_between(w0, Clock::now());
    } else {
      sent = channel.write_frame(payload);
    }
    if (!sent) return fail("transport: Event send failed");
    ++result.events_sent;
    // No Poll after the last event: Drain measures the whole verdict lag.
    if (config.poll_every > 0 && result.events_sent % config.poll_every == 0 &&
        result.events_sent < reader.total_events()) {
      const Clock::time_point p0 = Clock::now();
      if (!channel.write_frame(encode_poll())) {
        return fail("transport: Poll send failed");
      }
      if (!expect(channel, Op::kStats, &frame, &error)) return fail(error);
      result.poll_ms.push_back(seconds_between(p0, Clock::now()) * 1e3);
      result.resident_max = std::max(result.resident_max,
                                     frame.stats.counts.resident_bytes);
    }
  }
  const Clock::time_point last_event = Clock::now();
  result.stream_seconds = seconds_between(stream_start, last_event);

  if (!channel.write_frame(encode_drain())) {
    return fail("transport: Drain send failed");
  }
  if (!expect(channel, Op::kDrained, &frame, &error)) return fail(error);
  const Clock::time_point drained = Clock::now();
  result.seconds = seconds_between(hello_sent, drained);
  result.drain_ms = seconds_between(last_event, drained) * 1e3;
  result.drained = frame.counts;
  result.resident_max =
      std::max(result.resident_max, frame.counts.resident_bytes);

  for (int i = 0; i < config.idle_polls; ++i) {
    const Clock::time_point p0 = Clock::now();
    if (!channel.write_frame(encode_poll())) {
      return fail("transport: Poll send failed");
    }
    if (!expect(channel, Op::kStats, &frame, &error)) return fail(error);
    result.idle_poll_us.push_back(seconds_between(p0, Clock::now()) * 1e6);
  }

  if (!channel.write_frame(encode_shutdown())) {
    return fail("transport: Shutdown send failed");
  }
  if (!expect(channel, Op::kGoodbye, &frame, &error)) return fail(error);
  std::vector<std::uint8_t> tail;
  if (const ReadStatus status = channel.read_frame(&tail);
      status != ReadStatus::kEof) {
    return fail(std::string("transport: expected EOF after Goodbye, got ") +
                to_string(status));
  }
  result.ok = true;
  return result;
}

}  // namespace pmbench
