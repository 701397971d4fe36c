#include "service/net_server.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace optshare::service {
namespace {

/// Requests in flight per connection before the loop stops reading from it
/// (natural TCP backpressure toward a firehose client); mirrors the stdin
/// loop's bounded in-flight window.
constexpr int kMaxPendingPerConnection = 512;

/// Bytes read per recv() call in the event loop.
constexpr size_t kReadChunkBytes = 64 * 1024;

/// How long a graceful drain waits for clients to read their final
/// responses, and how long a lingering close waits for the peer's EOF,
/// before force-closing (a client that never drains its shutdown response
/// must not wedge Wait()).
constexpr auto kDrainGrace = std::chrono::seconds(5);

std::string ErrorLine(Status status) {
  protocol::Response error = protocol::ErrorResponse("", std::move(status));
  error.version = protocol::kMinProtocolVersion;
  return protocol::FormatResponseLine(error);
}

}  // namespace

JsonValue ToJson(const NetServerStats& stats) {
  JsonValue obj = JsonValue::MakeObject();
  const auto num = [](uint64_t v) {
    return JsonValue::Number(static_cast<double>(v));
  };
  obj.Set("connections_accepted", num(stats.connections_accepted));
  obj.Set("connections_open", num(stats.connections_open));
  obj.Set("connections_refused", num(stats.connections_refused));
  obj.Set("connections_dropped_backpressure",
          num(stats.connections_dropped_backpressure));
  obj.Set("requests", num(stats.requests));
  obj.Set("responses", num(stats.responses));
  obj.Set("oversize_lines", num(stats.oversize_lines));
  obj.Set("rate_limited_lines", num(stats.rate_limited_lines));
  obj.Set("bytes_read", num(stats.bytes_read));
  obj.Set("bytes_written", num(stats.bytes_written));
  return obj;
}

/// State dispatch callbacks touch after the loop (or the NetServer) may be
/// gone: the wake pipe and the counters. Held by shared_ptr from every
/// callback, every Connection, and the NetServer itself.
struct NetServer::Shared {
  ~Shared() {
    CloseWake();
    if (wake_read >= 0) ::close(wake_read);
  }

  /// Wakes the poll loop (response ready, connection state changed).
  /// Callable from any thread, harmlessly a no-op once the pipe closed.
  void Notify() {
    std::lock_guard<std::mutex> lock(wake_mu);
    if (wake_write < 0) return;
    const char byte = 1;
    // EAGAIN means the pipe already holds a wakeup; that is all we need.
    [[maybe_unused]] const ssize_t n = ::write(wake_write, &byte, 1);
  }

  void CloseWake() {
    std::lock_guard<std::mutex> lock(wake_mu);
    if (wake_write >= 0) {
      ::close(wake_write);
      wake_write = -1;
    }
  }

  std::mutex wake_mu;
  int wake_write = -1;  ///< Guarded by wake_mu.
  int wake_read = -1;   ///< Loop-owned; closed by the destructor.

  std::atomic<bool> stop{false};      ///< Stop(): abrupt exit.
  std::atomic<bool> draining{false};  ///< Wire shutdown accepted.

  std::atomic<uint64_t> connections_accepted{0};
  std::atomic<uint64_t> connections_open{0};
  std::atomic<uint64_t> connections_refused{0};
  std::atomic<uint64_t> connections_dropped_backpressure{0};
  std::atomic<uint64_t> requests{0};
  std::atomic<uint64_t> responses{0};
  std::atomic<uint64_t> oversize_lines{0};
  std::atomic<uint64_t> rate_limited_lines{0};
  std::atomic<uint64_t> bytes_read{0};
  std::atomic<uint64_t> bytes_written{0};

  NetServerStats Snapshot() const {
    NetServerStats stats;
    stats.connections_accepted = connections_accepted.load();
    stats.connections_open = connections_open.load();
    stats.connections_refused = connections_refused.load();
    stats.connections_dropped_backpressure =
        connections_dropped_backpressure.load();
    stats.requests = requests.load();
    stats.responses = responses.load();
    stats.oversize_lines = oversize_lines.load();
    stats.rate_limited_lines = rate_limited_lines.load();
    stats.bytes_read = bytes_read.load();
    stats.bytes_written = bytes_written.load();
    return stats;
  }
};

/// Per-connection state. The event loop owns the socket, the read-side
/// LineBuffer and the lifecycle flags below; dispatch callbacks reach the
/// connection only through writer -> QueueResponse, which takes mu.
struct NetServer::Connection {
  Connection(net::Socket sock, std::shared_ptr<Shared> shared_state,
             size_t line_cap, size_t write_cap_bytes,
             std::string backpressure_response, double requests_per_sec)
      : socket(std::move(sock)),
        lines(line_cap),
        shared(std::move(shared_state)),
        write_cap(write_cap_bytes),
        backpressure_line(std::move(backpressure_response)),
        rate(requests_per_sec, /*burst=*/requests_per_sec),
        writer([this](std::string_view line) { QueueResponse(line); }) {}

  /// OrderedLineWriter sink: runs on whichever thread completed the
  /// response (a worker, or the loop for inline parse errors). Appends the
  /// view straight into the write buffer — the only copy a response makes
  /// between the worker's scratch and the socket. The cap turns a slow
  /// reader into a final ResourceExhausted line plus close_after_flush.
  void QueueResponse(std::string_view line) {
    std::lock_guard<std::mutex> lock(mu);
    shared->responses.fetch_add(1, std::memory_order_relaxed);
    if (dead || overflowed) return;  // Responses to a condemned reader drop.
    out.append(line);
    out.push_back('\n');
    if (write_cap > 0 && out.size() - out_offset > write_cap) {
      overflowed = true;
      stop_reading = true;
      close_after_flush = true;
      condemned_at = std::chrono::steady_clock::now();
      shared->connections_dropped_backpressure.fetch_add(
          1, std::memory_order_relaxed);
      out += backpressure_line;
      out.push_back('\n');
    }
  }

  /// Bytes queued but not yet accepted by the kernel. Requires mu held.
  size_t UnflushedLocked() const { return out.size() - out_offset; }

  net::Socket socket;
  net::LineBuffer lines;
  std::shared_ptr<Shared> shared;
  const size_t write_cap;
  const std::string backpressure_line;

  std::mutex mu;  ///< Guards out, out_offset and the flags below.
  std::string out;
  /// Flushed prefix of `out`: writes advance this instead of erasing from
  /// the front (which would memmove the whole backlog per partial write);
  /// the string is cleared once fully drained.
  size_t out_offset = 0;
  bool stop_reading = false;
  bool overflowed = false;
  bool close_after_flush = false;
  /// Socket closed or lingering: nothing more is written, late responses
  /// are dropped.
  bool dead = false;
  /// When backpressure condemned this connection; after a grace period a
  /// peer that never drains lingers with its buffer dropped.
  std::chrono::steady_clock::time_point condemned_at{};

  bool eof_seen = false;  ///< Loop-only: peer half-closed; drain then close.
  /// Loop-only: our side is shut down for writing and the peer's input is
  /// read and discarded until its EOF or linger_deadline.
  bool lingering = false;
  std::chrono::steady_clock::time_point linger_deadline{};
  TokenBucket rate;             ///< Loop-only: per-connection request rate.
  std::string line_scratch;     ///< Loop-only: reused request-line buffer.
  std::atomic<int> pending{0};  ///< Dispatched, response not yet queued.
  OrderedLineWriter writer;     ///< Last member: sink touches the above.
};

NetServer::NetServer(MarketplaceServer* server, NetServerOptions options)
    : server_(server),
      options_(std::move(options)),
      dispatcher_(server),
      shared_(std::make_shared<Shared>()) {}

NetServer::~NetServer() { Stop(); }

Status NetServer::Start() {
  if (started_.exchange(true)) {
    return Status::FailedPrecondition("NetServer already started");
  }
  Result<net::Socket> listener =
      net::ListenTcp(options_.host, options_.port);
  if (!listener.ok()) return listener.status();
  Result<uint16_t> port = net::BoundPort(*listener);
  if (!port.ok()) return port.status();
  listener_ = std::move(*listener);
  port_ = *port;

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    return Status::Internal(std::string("pipe: ") + std::strerror(errno));
  }
  shared_->wake_read = pipe_fds[0];
  shared_->wake_write = pipe_fds[1];
  OPTSHARE_RETURN_NOT_OK(net::SetNonBlocking(pipe_fds[0]));
  OPTSHARE_RETURN_NOT_OK(net::SetNonBlocking(pipe_fds[1]));

  // The wire server_info op now reports this transport's live counters.
  std::shared_ptr<Shared> shared = shared_;
  server_->SetTransportInfoProvider(
      [shared] { return ToJson(shared->Snapshot()); });

  loop_ = std::thread([this] { Loop(); });
  OPTSHARE_LOG(Info) << "net: listening on "
                     << (options_.host.empty() ? "*" : options_.host) << ":"
                     << port_;
  return Status::OK();
}

void NetServer::Wait() {
  std::lock_guard<std::mutex> lock(join_mu_);
  if (loop_.joinable()) loop_.join();
}

void NetServer::Stop() {
  if (!started_.load()) return;
  if (!stopped_.exchange(true)) {
    shared_->stop.store(true);
    shared_->Notify();
  }
  Wait();
  // Unregister before the NetServer (whose counters the provider serves)
  // can be destroyed; blocks out any in-flight server_info.
  server_->SetTransportInfoProvider(nullptr);
  shared_->CloseWake();
}

NetServerStats NetServer::stats() const { return shared_->Snapshot(); }

void NetServer::Loop() {
  const std::string oversize_line = dispatcher_.OversizedLineResponse();
  const std::string refusal_line = ErrorLine(Status::ResourceExhausted(
      "connection limit reached (max_connections=" +
      std::to_string(options_.max_connections) + ")"));
  const std::string backpressure_line = ErrorLine(Status::ResourceExhausted(
      "write buffer exceeded " +
      std::to_string(options_.max_write_buffer_bytes) +
      " bytes: reader too slow; closing"));

  std::vector<std::shared_ptr<Connection>> conns;
  bool accepting = true;
  bool drain_logged = false;
  bool drain_expired = false;
  std::chrono::steady_clock::time_point drain_start{};
  std::vector<pollfd> fds;
  // Parallel to fds: index into conns, or -1 for wake/listener entries.
  std::vector<int> fd_conn;

  const auto close_connection = [&](size_t index) {
    const std::shared_ptr<Connection>& conn = conns[index];
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      conn->dead = true;
      conn->socket.Close();
    }
    shared_->connections_open.fetch_sub(1, std::memory_order_relaxed);
    conns.erase(conns.begin() + static_cast<long>(index));
  };

  // The lingering close: send FIN after whatever the kernel already holds,
  // then read and discard the peer's input until its EOF (or the deadline)
  // before closing. close() with unread input in the receive queue makes
  // the kernel answer RST instead, which fails the peer's pending sends
  // and can destroy responses it has not read yet (a backpressure verdict
  // included). Unflushed responses are dropped.
  const auto linger = [&](Connection& conn) {
    {
      std::lock_guard<std::mutex> lock(conn.mu);
      conn.dead = true;
      conn.stop_reading = true;
      conn.out.clear();
      conn.out_offset = 0;
    }
    ::shutdown(conn.socket.fd(), SHUT_WR);
    conn.lingering = true;
    conn.linger_deadline = std::chrono::steady_clock::now() + kDrainGrace;
  };

  // Reads and discards a lingering connection's input. Returns false once
  // the peer is done (EOF or error): the caller closes.
  const auto discard_input = [&](Connection& conn) {
    char buf[kReadChunkBytes];
    for (;;) {
      Result<net::IoChunk> got = net::ReadChunk(conn.socket.fd(), buf,
                                                sizeof(buf));
      if (!got.ok() || got->eof) return false;
      if (got->would_block) return true;
      shared_->bytes_read.fetch_add(got->bytes, std::memory_order_relaxed);
    }
  };

  // Flushes as much of conn->out as the kernel accepts. Returns false when
  // the peer is gone (caller closes).
  const auto flush_writes = [&](Connection& conn) {
    std::lock_guard<std::mutex> lock(conn.mu);
    while (conn.UnflushedLocked() > 0) {
      Result<net::IoChunk> wrote =
          net::WriteChunk(conn.socket.fd(), conn.out.data() + conn.out_offset,
                          conn.UnflushedLocked());
      if (!wrote.ok() || wrote->eof) return false;
      if (wrote->would_block) break;
      shared_->bytes_written.fetch_add(wrote->bytes,
                                       std::memory_order_relaxed);
      conn.out_offset += wrote->bytes;
    }
    if (conn.UnflushedLocked() == 0 && !conn.out.empty()) {
      conn.out.clear();
      conn.out_offset = 0;
    }
    return true;
  };

  // Reads everything available and dispatches complete lines. Returns
  // false on a hard error (caller closes).
  const auto read_and_dispatch = [&](const std::shared_ptr<Connection>&
                                         conn) {
    char buf[kReadChunkBytes];
    for (;;) {
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        if (conn->stop_reading) return true;
      }
      Result<net::IoChunk> got =
          net::ReadChunk(conn->socket.fd(), buf, sizeof(buf));
      if (!got.ok()) return false;
      if (got->eof) {
        conn->eof_seen = true;
        std::lock_guard<std::mutex> lock(conn->mu);
        conn->stop_reading = true;
        return true;
      }
      if (got->would_block) return true;
      shared_->bytes_read.fetch_add(got->bytes, std::memory_order_relaxed);
      conn->lines.Append(buf, got->bytes);
      // The connection's line scratch persists across reads, so NextLine's
      // assign reuses its capacity instead of growing a fresh string.
      std::string& line = conn->line_scratch;
      for (;;) {
        const net::LineBuffer::Next next = conn->lines.NextLine(&line);
        if (next == net::LineBuffer::Next::kNeedMore) break;
        if (next == net::LineBuffer::Next::kTooLong) {
          shared_->oversize_lines.fetch_add(1, std::memory_order_relaxed);
          conn->writer.Complete(conn->writer.Reserve(), oversize_line);
          continue;
        }
        if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
        // Per-connection admission (loop thread, so the bucket needs no
        // lock): a breaching line is answered, typed and with a retry
        // hint, without ever reaching the dispatcher.
        if (!conn->rate.unlimited()) {
          const TokenBucket::Decision decision = conn->rate.Acquire(1.0);
          if (!decision.admitted) {
            shared_->rate_limited_lines.fetch_add(1,
                                                  std::memory_order_relaxed);
            protocol::Response error = protocol::ErrorResponse(
                "", Status::ResourceExhausted(
                        "connection is over its request-rate cap "
                        "(max_connection_requests_per_sec)"));
            error.version = protocol::kMinProtocolVersion;
            error.retry_after_ms = decision.retry_after_ms;
            conn->writer.Complete(conn->writer.Reserve(),
                                  protocol::FormatResponseLine(error));
            continue;
          }
        }
        shared_->requests.fetch_add(1, std::memory_order_relaxed);
        conn->pending.fetch_add(1, std::memory_order_acq_rel);
        const uint64_t slot = conn->writer.Reserve();
        const bool is_shutdown = dispatcher_.Submit(
            line, [conn, slot](std::string_view response) {
              conn->writer.Complete(slot, response);
              conn->pending.fetch_sub(1, std::memory_order_acq_rel);
              conn->shared->Notify();
            });
        if (is_shutdown) {
          // Mirror the stdin loop: once a shutdown is queued, whatever the
          // connection already buffered is intentionally unread.
          shared_->draining.store(true);
          std::lock_guard<std::mutex> lock(conn->mu);
          conn->stop_reading = true;
          return true;
        }
      }
      if (conn->pending.load(std::memory_order_acquire) >=
          kMaxPendingPerConnection) {
        return true;  // Let the backlog drain before reading more.
      }
    }
  };

  for (;;) {
    if (shared_->stop.load()) break;
    const bool draining =
        shared_->draining.load() || server_->shutdown_requested();
    if (draining) {
      if (accepting) {
        accepting = false;
        listener_.Close();
      }
      if (!drain_logged) {
        drain_logged = true;
        drain_start = std::chrono::steady_clock::now();
        OPTSHARE_LOG(Info) << "net: shutdown accepted; draining "
                           << conns.size() << " connections";
      }
      for (const std::shared_ptr<Connection>& conn : conns) {
        std::lock_guard<std::mutex> lock(conn->mu);
        conn->stop_reading = true;
      }
    }

    // Close every connection that has finished its lifecycle: peer gone,
    // fully drained during shutdown, or done lingering. One condemned by
    // backpressure lingers once its verdict is flushed.
    const auto now = std::chrono::steady_clock::now();
    for (size_t i = conns.size(); i-- > 0;) {
      Connection& conn = *conns[i];
      if (conn.lingering) {
        if (now > conn.linger_deadline) close_connection(i);
        continue;
      }
      bool close_now = false;
      bool linger_now = false;
      {
        // pending == 0 means every submitted callback has already run its
        // writer.Complete (the decrement follows it), so the writer is
        // flushed into `out` by construction — no writer-mutex probe here
        // (that would invert the Complete -> QueueResponse lock order).
        std::lock_guard<std::mutex> lock(conn.mu);
        const bool idle = conn.pending.load(std::memory_order_acquire) == 0 &&
                          conn.UnflushedLocked() == 0;
        // A condemned peer that never drains its final error would hold
        // the connection (and its bounded buffer) forever; after the
        // grace period it lingers with its unflushed bytes dropped.
        linger_now = conn.close_after_flush &&
                     (idle || now - conn.condemned_at > kDrainGrace);
        close_now = !conn.close_after_flush && idle &&
                    (conn.eof_seen || (draining && conn.stop_reading));
      }
      if (close_now) {
        close_connection(i);
      } else if (linger_now) {
        linger(conn);
      }
    }
    if (draining) {
      if (conns.empty()) break;
      if (!drain_expired && now - drain_start > kDrainGrace) {
        drain_expired = true;
        OPTSHARE_LOG(Warning)
            << "net: drain grace expired; dropping the unread responses of "
            << conns.size() << " connections";
        for (const std::shared_ptr<Connection>& conn : conns) {
          if (!conn->lingering) linger(*conn);
        }
      }
    }

    fds.clear();
    fd_conn.clear();
    fds.push_back({shared_->wake_read, POLLIN, 0});
    fd_conn.push_back(-1);
    const bool room =
        static_cast<int>(conns.size()) < options_.max_connections;
    if (accepting && listener_.valid()) {
      // Stay registered even at the connection cap so surplus connects can
      // be refused promptly instead of rotting in the backlog.
      fds.push_back({listener_.fd(), POLLIN, 0});
      fd_conn.push_back(-2);
    }
    for (size_t i = 0; i < conns.size(); ++i) {
      const std::shared_ptr<Connection>& conn = conns[i];
      short events = conn->lingering ? POLLIN : 0;
      if (!conn->lingering) {
        std::lock_guard<std::mutex> lock(conn->mu);
        if (!conn->stop_reading &&
            conn->pending.load(std::memory_order_acquire) <
                kMaxPendingPerConnection) {
          events |= POLLIN;
        }
        if (conn->UnflushedLocked() > 0) events |= POLLOUT;
      }
      fds.push_back({conn->socket.fd(), events, 0});
      fd_conn.push_back(static_cast<int>(i));
    }

    const int rc = ::poll(fds.data(), fds.size(), /*timeout_ms=*/100);
    if (rc < 0) {
      if (errno == EINTR) continue;
      OPTSHARE_LOG(Error) << "net: poll failed: " << std::strerror(errno);
      break;
    }

    // Drain wake bytes (their only job was ending the poll call).
    if (fds[0].revents & POLLIN) {
      char sink[256];
      while (::read(shared_->wake_read, sink, sizeof(sink)) > 0) {
      }
    }

    // Snapshot which connection indices got events before any close call
    // reshuffles `conns`: resolve revents to connection pointers first.
    std::vector<std::pair<std::shared_ptr<Connection>, short>> events;
    bool listener_ready = false;
    for (size_t f = 1; f < fds.size(); ++f) {
      if (fds[f].revents == 0) continue;
      if (fd_conn[f] == -2) {
        listener_ready = true;
      } else if (fd_conn[f] >= 0) {
        events.emplace_back(conns[static_cast<size_t>(fd_conn[f])],
                            fds[f].revents);
      }
    }

    if (listener_ready) {
      for (;;) {
        Result<net::Socket> accepted = net::AcceptNonBlocking(listener_);
        if (!accepted.ok()) {
          OPTSHARE_LOG(Error)
              << "net: accept failed: " << accepted.status().ToString();
          break;
        }
        if (!accepted->valid()) break;
        if (!room || static_cast<int>(conns.size()) >=
                         options_.max_connections) {
          shared_->connections_refused.fetch_add(1,
                                                 std::memory_order_relaxed);
          const std::string refusal = refusal_line + "\n";
          (void)net::WriteChunk(accepted->fd(), refusal.data(),
                                refusal.size());
          continue;  // Socket closes as `accepted` goes out of scope.
        }
        if (options_.sndbuf_bytes > 0) {
          ::setsockopt(accepted->fd(), SOL_SOCKET, SO_SNDBUF,
                       &options_.sndbuf_bytes, sizeof(options_.sndbuf_bytes));
        }
        shared_->connections_accepted.fetch_add(1, std::memory_order_relaxed);
        shared_->connections_open.fetch_add(1, std::memory_order_relaxed);
        conns.push_back(std::make_shared<Connection>(
            std::move(*accepted), shared_,
            server_->line_caps().framing_bytes(),
            options_.max_write_buffer_bytes, backpressure_line,
            options_.max_connection_requests_per_sec));
      }
    }

    for (const auto& [conn, revents] : events) {
      bool healthy = true;
      if (conn->lingering) {
        healthy = !(revents & (POLLIN | POLLHUP)) || discard_input(*conn);
      } else if (revents & (POLLIN | POLLHUP)) {
        healthy = read_and_dispatch(conn);
      }
      if (healthy && (revents & POLLOUT)) healthy = flush_writes(*conn);
      if (!healthy || (revents & (POLLERR | POLLNVAL))) {
        // Find it again — closes above may have moved indices.
        for (size_t i = 0; i < conns.size(); ++i) {
          if (conns[i] == conn) {
            close_connection(i);
            break;
          }
        }
      }
    }

    // Responses queued by workers while we polled: flush eagerly so a
    // round-trip client is answered this iteration, not next.
    for (size_t i = conns.size(); i-- > 0;) {
      bool healthy = true;
      {
        std::lock_guard<std::mutex> lock(conns[i]->mu);
        if (conns[i]->UnflushedLocked() == 0) continue;
      }
      healthy = flush_writes(*conns[i]);
      if (!healthy) close_connection(i);
    }
  }

  listener_.Close();
  for (const std::shared_ptr<Connection>& conn : conns) {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->dead = true;
    conn->socket.Close();
  }
  shared_->connections_open.store(0, std::memory_order_relaxed);
  conns.clear();
}

}  // namespace optshare::service
