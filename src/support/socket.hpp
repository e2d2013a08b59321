// Minimal POSIX TCP wrapper for the serve layer: a listener that binds a
// local port (0 = ephemeral, the bound port is readable afterwards), a
// stream with whole-buffer send/receive helpers, and a client-side
// connect. Everything is blocking; the serve layer's concurrency comes
// from threads, not readiness loops. Writes never raise SIGPIPE (a client
// hanging up mid-response must surface as an error return on the worker
// that holds the connection, not kill the daemon).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace cvmt {

/// One connected TCP stream. Move-only owner of the file descriptor.
class TcpStream {
 public:
  TcpStream() = default;
  explicit TcpStream(int fd) : fd_(fd) {}
  TcpStream(TcpStream&& other) noexcept;
  TcpStream& operator=(TcpStream&& other) noexcept;
  TcpStream(const TcpStream&) = delete;
  TcpStream& operator=(const TcpStream&) = delete;
  ~TcpStream();

  [[nodiscard]] bool valid() const { return fd_ >= 0; }

  /// Sends the whole buffer (looping over short writes, SIGPIPE
  /// suppressed). False on any error — the peer is gone; the caller drops
  /// the connection.
  [[nodiscard]] bool send_all(std::string_view data);

  /// Receives up to `cap` bytes into `buf`. Returns the byte count, 0 on
  /// orderly shutdown by the peer, -1 on error.
  [[nodiscard]] long recv_some(char* buf, std::size_t cap);

  /// Shuts down the read direction only: a blocked recv_some() wakes
  /// with 0, while queued writes still flush to the peer. The server's
  /// drain uses this to stop readers without dropping responses already
  /// (or still being) written. Safe to call from another thread.
  void shutdown_read();

  /// Shuts down both directions without closing the descriptor: any
  /// thread blocked in recv_some() on this stream wakes with 0/-1. Safe
  /// to call from another thread (the basis of the server's drain).
  void shutdown_both();

  void close();

 private:
  int fd_ = -1;
};

/// A listening TCP socket bound to 127.0.0.1 (serve is a local daemon; a
/// fronting proxy owns any wider exposure).
class TcpListener {
 public:
  TcpListener() = default;
  TcpListener(TcpListener&& other) noexcept;
  TcpListener& operator=(TcpListener&& other) noexcept;
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;
  ~TcpListener();

  /// Binds and listens on `port` (0 picks an ephemeral port). Throws
  /// CheckError with the errno text when the port cannot be bound.
  [[nodiscard]] static TcpListener bind_local(std::uint16_t port);

  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  /// The actually-bound port (meaningful after bind_local(0)).
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Blocks for the next connection. Returns an invalid stream once the
  /// listener is shut down (the accept loop's exit signal) or on a
  /// transient accept failure.
  [[nodiscard]] TcpStream accept_one();

  /// Stops accepting: a blocked accept_one() wakes and returns an invalid
  /// stream, and so does every later call. The descriptor stays open, so
  /// it cannot be recycled under a thread still inside accept_one(). Safe
  /// to call from another thread while the listener is open.
  void shutdown();

  /// Closes the listening descriptor. Not safe against a concurrent
  /// accept_one(): shut down, join the accepting thread, then close.
  void close();

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

/// Connects to 127.0.0.1:`port` (or `host` when given). Throws CheckError
/// with the errno text on failure.
[[nodiscard]] TcpStream connect_local(std::uint16_t port,
                                      const std::string& host = "127.0.0.1");

}  // namespace cvmt
