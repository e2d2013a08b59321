#include "support/socket.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "support/check.hpp"

namespace cvmt {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw CheckError(what + ": " + std::strerror(errno));
}

}  // namespace

// --- TcpStream ------------------------------------------------------------

TcpStream::TcpStream(TcpStream&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)) {}

TcpStream& TcpStream::operator=(TcpStream&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

TcpStream::~TcpStream() { close(); }

bool TcpStream::send_all(std::string_view data) {
  while (!data.empty()) {
    // MSG_NOSIGNAL: a peer that hung up must yield EPIPE here, not kill
    // the process with SIGPIPE.
    const ssize_t n =
        ::send(fd_, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

long TcpStream::recv_some(char* buf, std::size_t cap) {
  for (;;) {
    const ssize_t n = ::recv(fd_, buf, cap, 0);
    if (n < 0 && errno == EINTR) continue;
    return static_cast<long>(n);
  }
}

void TcpStream::shutdown_read() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RD);
}

void TcpStream::shutdown_both() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void TcpStream::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

// --- TcpListener ----------------------------------------------------------

TcpListener::TcpListener(TcpListener&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      port_(std::exchange(other.port_, 0)) {}

TcpListener& TcpListener::operator=(TcpListener&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    port_ = std::exchange(other.port_, 0);
  }
  return *this;
}

TcpListener::~TcpListener() { close(); }

TcpListener TcpListener::bind_local(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket()");

  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(fd);
    throw_errno("bind(127.0.0.1:" + std::to_string(port) + ")");
  }
  if (::listen(fd, 128) < 0) {
    ::close(fd);
    throw_errno("listen()");
  }

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
    ::close(fd);
    throw_errno("getsockname()");
  }

  TcpListener l;
  l.fd_ = fd;
  l.port_ = ntohs(bound.sin_port);
  return l;
}

TcpStream TcpListener::accept_one() {
  if (fd_ < 0) return TcpStream{};
  for (;;) {
    // After shutdown() from another thread, accept(2) fails with EINVAL,
    // which maps to the invalid stream below.
    const int conn = ::accept(fd_, nullptr, nullptr);
    if (conn >= 0) {
      // Request/response lines are small; Nagle would add 40ms stalls to
      // pipelined clients.
      const int one = 1;
      ::setsockopt(conn, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return TcpStream{conn};
    }
    if (errno == EINTR) continue;
    return TcpStream{};
  }
}

void TcpListener::shutdown() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void TcpListener::close() {
  if (fd_ >= 0) {
    shutdown();
    ::close(fd_);
    fd_ = -1;
  }
}

// --- connect --------------------------------------------------------------

TcpStream connect_local(std::uint16_t port, const std::string& host) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket()");

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw CheckError("connect: not an IPv4 address: " + host);
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) < 0) {
    ::close(fd);
    throw_errno("connect(" + host + ":" + std::to_string(port) + ")");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return TcpStream{fd};
}

}  // namespace cvmt
