// Shared scaffolding for the paramountd suites (test_service.cpp and
// test_event_server.cpp): an in-process EpollServer on a Unix or TCP
// endpoint, frame-level client helpers, and the offline-driver oracle the
// differential tests compare against.
//
// Synchronization is condition-variable based throughout
// (EpollServer::wait_sessions_completed); no sleep-based sync, per
// tools/lint/paramount_lint.py.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/paramount.hpp"
#include "poset/poset_builder.hpp"
#include "service/epoll_server.hpp"
#include "service/frame.hpp"
#include "workloads/event_stream.hpp"

namespace paramount::service::test_support {

inline constexpr std::chrono::seconds kWait{60};  // TSan/ASan builds are slow

inline std::string unique_socket_path() {
  static std::atomic<int> counter{0};
  return "/tmp/pm_svc_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

// In-process server plus stream-aware frame-level client helpers.
class ServerFixture : public ::testing::Test {
 protected:
  // Starts on a fresh Unix path by default; pass kTcp to exercise the TCP
  // listener (ephemeral port).
  void start_server(EpollServer::Options options = {},
                    Endpoint::Kind kind = Endpoint::Kind::kUnix) {
    if (kind == Endpoint::Kind::kTcp) {
      options.endpoint.kind = Endpoint::Kind::kTcp;
      options.endpoint.host = "127.0.0.1";
      options.endpoint.port = 0;
    } else {
      options.endpoint.kind = Endpoint::Kind::kUnix;
      options.endpoint.path = unique_socket_path();
    }
    endpoint_ = options.endpoint;
    server_ = std::make_unique<EpollServer>(std::move(options));
    std::string error;
    ASSERT_TRUE(server_->start(&error)) << error;
    if (kind == Endpoint::Kind::kTcp) endpoint_.port = server_->tcp_port();
  }

  FrameChannel connect() {
    std::string error;
    UniqueFd fd = connect_endpoint(endpoint_, &error);
    EXPECT_TRUE(fd.valid()) << error;
    return FrameChannel(std::move(fd));
  }

  // Reads one frame, asserts it arrived on `expect_stream`, and decodes it.
  DecodedFrame read_frame(FrameChannel& channel,
                          std::uint32_t expect_stream = 0) {
    std::vector<std::uint8_t> payload;
    std::uint32_t stream = 0;
    const ReadStatus status = channel.read_frame(&payload, &stream);
    EXPECT_EQ(status, ReadStatus::kFrame) << to_string(status);
    DecodedFrame frame;
    if (status == ReadStatus::kFrame) {
      EXPECT_EQ(stream, expect_stream);
      const auto err = decode_frame(payload, &frame);
      EXPECT_FALSE(err.has_value()) << (err ? err->message : "");
    }
    return frame;
  }

  // Performs the Hello handshake on `stream`.
  void hello(FrameChannel& channel, const HelloBody& body,
             std::uint32_t stream = 0) {
    ASSERT_TRUE(channel.write_frame(encode_hello(body), stream));
    const DecodedFrame ack = read_frame(channel, stream);
    ASSERT_EQ(ack.op, Op::kHelloAck);
    EXPECT_EQ(ack.hello_ack.version, kProtocolVersion);
  }

  // Expects the next server frame to be an Error with the given code,
  // followed by an orderly close (EOF, never a reset).
  void expect_error_then_close(FrameChannel& channel, ErrorCode code) {
    const DecodedFrame frame = read_frame(channel);
    ASSERT_EQ(frame.op, Op::kError);
    EXPECT_EQ(frame.error.code, code) << frame.error.message;
    std::vector<std::uint8_t> payload;
    EXPECT_EQ(channel.read_frame(&payload), ReadStatus::kEof);
  }

  // Waits (condition-variable, not sleep) for `n` total completed sessions.
  void await_completed(std::uint64_t n) {
    ASSERT_TRUE(server_->wait_sessions_completed(n, kWait))
        << "sessions did not complete";
  }

  Endpoint endpoint_;
  std::unique_ptr<EpollServer> server_;
};

// Sends `total` delta-encoded synthetic events on `stream_id`; `prev` holds
// each thread's last sent clock.
inline void stream_events(FrameChannel& channel, SyntheticEventStream& stream,
                          std::vector<VectorClock>& prev, std::uint64_t total,
                          std::uint32_t stream_id = 0) {
  for (std::uint64_t i = 0; i < total; ++i) {
    const SyntheticEventStream::StreamEvent ev = stream.next();
    EventBody body;
    body.tid = ev.tid;
    body.kind = ev.kind;
    body.object = ev.object;
    for (std::size_t j = 0; j < ev.clock.size(); ++j) {
      if (ev.clock[j] != prev[ev.tid][j]) {
        body.delta.push_back({static_cast<std::uint32_t>(j), ev.clock[j]});
      }
    }
    prev[ev.tid] = ev.clock;
    ASSERT_TRUE(channel.write_frame(encode_event(body), stream_id));
  }
}

// Offline reference: state count of the identical stream via the offline
// driver (src/core/paramount.cpp).
inline std::uint64_t oracle_states(const SyntheticEventStream::Params& params,
                                   std::uint64_t total) {
  SyntheticEventStream stream(params);
  PosetBuilder builder(params.num_threads);
  for (std::uint64_t i = 0; i < total; ++i) {
    const SyntheticEventStream::StreamEvent ev = stream.next();
    builder.add_event_with_clock(ev.tid, ev.kind, ev.object, ev.clock);
  }
  const Poset poset = std::move(builder).build();
  ParamountOptions options;
  options.num_workers = 2;
  return enumerate_paramount(poset, options, [](const Frontier&) {}).states;
}

// The lock-synchronized 4-thread stream shape the oracle suites share.
inline SyntheticEventStream::Params oracle_params(std::uint64_t seed) {
  SyntheticEventStream::Params params;
  params.num_threads = 4;
  params.num_locks = 2;
  params.sync_probability = 0.8;
  params.seed = seed;
  return params;
}

}  // namespace paramount::service::test_support
