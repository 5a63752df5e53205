#include "service/epoll_server.hpp"

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>
#include <vector>

namespace paramount::service {

namespace {

bool make_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

// A frame the peer botched (as opposed to an orderly EOF or a dead
// transport): its sessions get a typed Error before the close.
bool is_broken_frame(ReadStatus status) {
  return status == ReadStatus::kTruncated || status == ReadStatus::kOversized;
}

}  // namespace

bool EpollServer::start(std::string* error, ListenUnixError* why) {
  if (started_) return true;
  listener_ = listen_endpoint(options_.endpoint, options_.backlog, error, why);
  if (!listener_.valid()) return false;
  if (!make_nonblocking(listener_.get())) {
    if (error != nullptr) {
      *error = std::string("fcntl(listener): ") + std::strerror(errno);
    }
    listener_.reset();
    return false;
  }
  if (options_.endpoint.kind == Endpoint::Kind::kTcp) {
    tcp_port_ = local_tcp_port(listener_.get());
  } else {
    bound_unix_path_ = options_.endpoint.path;
  }
  loop_ = std::make_unique<EventLoop>();
  if (!loop_->valid()) {
    if (error != nullptr) *error = loop_->error();
    listener_.reset();
    loop_.reset();
    return false;
  }
  loop_->add(listener_.get(), EventLoop::kReadable,
             [this](std::uint32_t) { on_acceptable(); });
  loop_thread_ = std::thread([this] { loop_main(); });
  started_ = true;
  return true;
}

void EpollServer::loop_main() { loop_->run(); }

void EpollServer::stop() {
  if (!started_) return;
  started_ = false;
  loop_->stop();
  loop_thread_.join();
  // The reactor is down: this thread is now the only one touching
  // connection state. Finish every live session (drains detectors,
  // releases pins, seals counts), push out what replies the kernel takes,
  // and close every connection — closing ones too, without waiting out
  // their linger. A blocked session's queued gate callback may still
  // post() to the stopped loop — harmless; the task queue dies with loop_
  // below, and so do the linger timers.
  for (const auto& [id, conn] : connections_) {
    finish_streams(*conn, ReadStatus::kEof);
    conn->channel.flush();
  }
  connections_.clear();
  listener_.reset();
  if (!bound_unix_path_.empty()) ::unlink(bound_unix_path_.c_str());
  tenant_gates_.clear();
  loop_.reset();
}

void EpollServer::on_acceptable() {
  while (true) {
    const int raw = ::accept4(listener_.get(), nullptr, nullptr,
                              SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (raw < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN (drained) or listener shut down
    }
    const std::uint64_t conn_id = next_conn_id_++;
    auto conn = std::make_shared<Connection>(UniqueFd(raw));
    connections_.emplace(conn_id, conn);
    {
      MutexLock lock(stats_mutex_);
      ++stats_.connections_accepted;
    }
    loop_->add(raw, EventLoop::kReadable,
               [this, conn_id](std::uint32_t ready) {
                 on_connection_ready(conn_id, ready);
               });
  }
}

void EpollServer::on_connection_ready(std::uint64_t conn_id,
                                      std::uint32_t ready) {
  const auto it = connections_.find(conn_id);
  if (it == connections_.end()) return;
  std::shared_ptr<Connection> conn = it->second;
  if (conn->closing) {
    advance_close(conn_id, ready);
    return;
  }
  if ((ready & EventLoop::kWritable) &&
      conn->channel.flush() == FrameChannel::FlushStatus::kError) {
    teardown(conn_id, ReadStatus::kError);
    return;
  }
  if ((ready & EventLoop::kReadable) && !conn->blocked) {
    read_quantum(conn, conn_id);
    if (conn->closing || connections_.count(conn_id) == 0) return;
  } else if (ready & EventLoop::kHangup) {
    // The peer died while this connection was deliberately not reading
    // (gate-blocked). ERR/HUP are unmaskable and level-triggered: ignoring
    // them here would re-fire the event forever — a busy-spinning reactor
    // pinned to a dead peer that can never be torn down if its gate never
    // frees. Tear it down now; the stashed pending event was never
    // charged, so nothing leaks.
    teardown(conn_id, ReadStatus::kError);
    return;
  }
  update_interest(*conn);
}

void EpollServer::read_quantum(const std::shared_ptr<Connection>& conn,
                               std::uint64_t conn_id) {
  std::vector<std::uint8_t> payload;
  std::uint32_t stream_id = 0;
  // Bounded work per dispatch: a connection with a deep kernel buffer
  // yields after kReadQuantum frames so its neighbours' Polls stay prompt
  // (level-triggered epoll re-fires immediately for the remainder).
  for (int i = 0; i < kReadQuantum; ++i) {
    const ReadStatus status = conn->channel.read_frame(&payload, &stream_id);
    switch (status) {
      case ReadStatus::kFrame:
        if (!dispatch_frame(conn, conn_id, stream_id, payload)) return;
        if (conn->blocked) return;
        break;
      case ReadStatus::kWouldBlock:
        return;
      case ReadStatus::kEof:
      case ReadStatus::kTruncated:
      case ReadStatus::kOversized:
      case ReadStatus::kError:
        teardown(conn_id, status);
        return;
    }
  }
}

bool EpollServer::dispatch_frame(const std::shared_ptr<Connection>& conn,
                                 std::uint64_t conn_id,
                                 std::uint32_t stream_id,
                                 std::span<const std::uint8_t> payload) {
  if (conn->rejected_streams.count(stream_id) != 0) return true;  // drop
  SessionCore* core = nullptr;
  const auto it = conn->streams.find(stream_id);
  if (it != conn->streams.end()) {
    core = it->second.get();
  } else {
    core = open_stream(conn, conn_id, stream_id);
    if (core == nullptr) {
      // Rejected; the typed Error already went out. A connection that
      // keeps opening streams past the session limit is hostile or broken:
      // once its rejected set hits the cap, close it (after the buffered
      // Error frames drain) instead of tracking ids without bound.
      if (conn->rejected_streams.size() >= kMaxRejectedStreams) {
        teardown(conn_id, ReadStatus::kEof);
        return false;
      }
      return true;
    }
  }
  switch (core->on_payload(payload)) {
    case SessionCore::Disposition::kContinue:
      return true;
    case SessionCore::Disposition::kBlocked:
      conn->blocked = true;
      conn->blocked_stream = stream_id;
      return true;
    case SessionCore::Disposition::kClose:
      end_stream(conn_id, *conn, stream_id);
      return stream_id != 0;
  }
  return true;
}

SessionCore* EpollServer::open_stream(const std::shared_ptr<Connection>& conn,
                                      std::uint64_t conn_id,
                                      std::uint32_t stream_id) {
  {
    MutexLock lock(stats_mutex_);
    ++stats_.sessions_accepted;
    if (live_sessions_ >= options_.max_sessions) {
      ++stats_.sessions_rejected;
    }
  }
  if (live_sessions_ >= options_.max_sessions) {
    conn->channel.write_frame(
        encode_error(ErrorCode::kSessionLimit,
                     "server at --max-sessions=" +
                         std::to_string(options_.max_sessions)),
        stream_id);
    conn->rejected_streams.insert(stream_id);
    return nullptr;
  }
  SessionCore::Limits limits;
  limits.eviction_alert_threshold = options_.eviction_alert_threshold;
  limits.state_store_budget_bytes = options_.state_store_budget_bytes;
  // The send callback holds a raw Connection pointer: the core is owned by
  // conn->streams, so it can never outlive the connection it writes to.
  Connection* raw_conn = conn.get();
  auto core = std::make_unique<SessionCore>(
      next_session_id_++, limits,
      [raw_conn, stream_id](std::span<const std::uint8_t> reply) {
        return raw_conn->channel.write_frame(reply, stream_id);
      });
  core->set_gate_provider(
      [this](const HelloBody& hello) { return gate_for(hello); });
  // Fired from whatever thread releases submit budget (typically a pool
  // worker retiring an interval): hop to the loop thread to resume reads.
  core->set_gate_ready([this, conn_id] {
    loop_->post([this, conn_id] { retry_blocked(conn_id); });
  });
  SessionCore* out = core.get();
  conn->streams.emplace(stream_id, std::move(core));
  ++live_sessions_;
  return out;
}

void EpollServer::end_stream(std::uint64_t conn_id, Connection& conn,
                             std::uint32_t stream_id) {
  if (stream_id == 0) {
    // Plain single-session connection: the transport closes with the
    // session, after its last reply (Goodbye or Error).
    teardown(conn_id, ReadStatus::kEof);
  } else {
    finish_stream(conn, stream_id);
  }
}

void EpollServer::finish_stream(Connection& conn, std::uint32_t stream_id) {
  const auto it = conn.streams.find(stream_id);
  if (it == conn.streams.end()) return;
  finish_session(*it->second);
  conn.streams.erase(it);
  --live_sessions_;
  if (conn.blocked && conn.blocked_stream == stream_id) conn.blocked = false;
}

void EpollServer::finish_session(SessionCore& core) {
  core.finish();
  const SessionCore::Result& result = core.result();
  MutexLock lock(stats_mutex_);
  ++stats_.sessions_completed;
  if (result.clean_shutdown) ++stats_.clean_shutdowns;
  stats_.protocol_errors += result.protocol_errors;
  stats_.frames += result.frames;
  stats_.leaked_pins += result.counts.outstanding_pins;
  stats_.submit_stalls += result.submit_stalls;
  if (result.hello_seen) {
    stats_.last_session = result.counts;
    stats_.last_racy_vars = result.racy_vars;
  }
  stats_cv_.notify_all();
}

void EpollServer::finish_streams(Connection& conn, ReadStatus why) {
  // Sessions on a torn stream get a typed farewell for a broken frame;
  // EOF and transport errors finish silently. Either way each core drains
  // its detector and releases every pin in finish().
  std::vector<std::uint32_t> stream_ids;
  stream_ids.reserve(conn.streams.size());
  for (const auto& [sid, core] : conn.streams) stream_ids.push_back(sid);
  for (const std::uint32_t sid : stream_ids) {
    if (is_broken_frame(why)) conn.streams.at(sid)->on_transport_status(why);
    finish_stream(conn, sid);
  }
}

void EpollServer::update_interest(Connection& conn) {
  std::uint32_t interest = 0;
  if (conn.closing ? !conn.peer_eof : !conn.blocked) {
    interest |= EventLoop::kReadable;
  }
  if (conn.channel.has_pending_write()) interest |= EventLoop::kWritable;
  loop_->modify(conn.channel.fd(), interest);
}

void EpollServer::teardown(std::uint64_t conn_id, ReadStatus why) {
  const auto it = connections_.find(conn_id);
  if (it == connections_.end() || it->second->closing) return;
  const std::shared_ptr<Connection> conn_ptr = it->second;
  Connection& conn = *conn_ptr;
  // A broken frame is answered even when it was the connection's first:
  // like any frame to an unopened stream it opens the stream-0 session,
  // which then fails with the typed Error.
  if (is_broken_frame(why) && conn.streams.empty()) {
    open_stream(conn_ptr, conn_id, 0);
  }
  // Sessions finish first, so their pins and stats never wait on the
  // linger below.
  finish_streams(conn, why);
  if (why == ReadStatus::kError) {
    close_now(conn_id);  // the transport is dead: nothing left to deliver
    return;
  }
  conn.closing = true;
  loop_->run_at(std::chrono::steady_clock::now() + kLingerTimeout,
                [this, conn_id] { close_now(conn_id); });
  advance_close(conn_id, 0);
}

void EpollServer::advance_close(std::uint64_t conn_id, std::uint32_t ready) {
  Connection& conn = *connections_.at(conn_id);
  if (!conn.write_shut) {
    switch (conn.channel.flush()) {
      case FrameChannel::FlushStatus::kError:
        close_now(conn_id);
        return;
      case FrameChannel::FlushStatus::kPending:
        break;
      case FrameChannel::FlushStatus::kDrained:
        conn.channel.shutdown_write();  // the peer reads EOF after the replies
        conn.write_shut = true;
        break;
    }
  }
  if (!conn.peer_eof) {
    switch (conn.channel.discard_input(&conn.discard_budget)) {
      case ReadStatus::kWouldBlock:
        break;
      case ReadStatus::kEof:
        conn.peer_eof = true;
        break;
      default:
        // A transport error, or a peer still sending past the discard cap:
        // stop waiting for it.
        close_now(conn_id);
        return;
    }
  }
  // Done once both directions are finished. A hangup means the peer is
  // gone: nothing buffered can reach it, and the level-triggered event
  // would otherwise re-fire until the deadline.
  if ((conn.write_shut && conn.peer_eof) || (ready & EventLoop::kHangup)) {
    close_now(conn_id);
    return;
  }
  update_interest(conn);
}

void EpollServer::close_now(std::uint64_t conn_id) {
  const auto it = connections_.find(conn_id);
  if (it == connections_.end()) return;
  loop_->remove(it->second->channel.fd());
  connections_.erase(it);  // the channel's UniqueFd closes the socket
}

void EpollServer::retry_blocked(std::uint64_t conn_id) {
  const auto it = connections_.find(conn_id);
  if (it == connections_.end()) return;
  std::shared_ptr<Connection> conn = it->second;
  if (!conn->blocked) return;
  const auto sit = conn->streams.find(conn->blocked_stream);
  if (sit == conn->streams.end()) {
    conn->blocked = false;
    update_interest(*conn);
    return;
  }
  switch (sit->second->retry_pending()) {
    case SessionCore::Disposition::kBlocked:
      return;  // re-queued on the gate; stay paused
    case SessionCore::Disposition::kClose:
      end_stream(conn_id, *conn, conn->blocked_stream);
      if (conn->closing) return;
      break;
    case SessionCore::Disposition::kContinue:
      conn->blocked = false;
      break;
  }
  update_interest(*conn);
}

std::shared_ptr<SubmitGate> EpollServer::gate_for(const HelloBody& hello) {
  if (options_.tenant_budget_bytes == 0) {
    return std::make_shared<SubmitGate>(options_.submit_budget_bytes);
  }
  auto& slot = tenant_gates_[hello.tenant_id];
  if (std::shared_ptr<SubmitGate> gate = slot.lock()) return gate;
  auto gate = std::make_shared<SubmitGate>(options_.tenant_budget_bytes);
  slot = gate;
  return gate;
}

ServerStats EpollServer::stats() const {
  MutexLock lock(stats_mutex_);
  return stats_;
}

bool EpollServer::wait_sessions_completed(
    std::uint64_t n, std::chrono::milliseconds timeout) const {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  MutexLock lock(stats_mutex_);
  while (stats_.sessions_completed < n) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return false;
    stats_cv_.wait_for(
        stats_mutex_, std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - now));
  }
  return true;
}

}  // namespace paramount::service
