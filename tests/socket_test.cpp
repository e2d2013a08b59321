// The TCP wrapper's delivery contracts: send_all loops over short writes
// until the whole buffer is on the wire, a peer that hangs up mid-send
// surfaces as a false return (EPIPE via MSG_NOSIGNAL), never as a
// SIGPIPE that kills the process, and a listener shutdown wakes a blocked
// accept without closing the descriptor under it.
#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <future>
#include <string>
#include <thread>

#include "support/check.hpp"
#include "support/socket.hpp"

namespace cvmt {
namespace {

struct Pair {
  TcpListener listener;
  TcpStream client;
  TcpStream server;
};

/// One connected loopback pair.
Pair make_pair() {
  Pair p;
  p.listener = TcpListener::bind_local(0);
  auto accepted = std::async(std::launch::async,
                             [&p] { return p.listener.accept_one(); });
  p.client = connect_local(p.listener.port());
  p.server = accepted.get();
  EXPECT_TRUE(p.client.valid());
  EXPECT_TRUE(p.server.valid());
  return p;
}

// A payload far beyond any socket buffer forces send(2) into repeated
// short writes; send_all must deliver every byte anyway, in order.
TEST(Socket, SendAllDeliversALargePayloadAcrossShortWrites) {
  Pair p = make_pair();
  std::string payload(8u << 20, '\0');  // 8 MiB
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<char>('a' + i % 23);

  auto received = std::async(std::launch::async, [&p, &payload] {
    std::string got;
    got.reserve(payload.size());
    std::array<char, 65536> chunk;
    while (got.size() < payload.size()) {
      const long n = p.server.recv_some(chunk.data(), chunk.size());
      if (n <= 0) break;
      got.append(chunk.data(), static_cast<std::size_t>(n));
    }
    return got;
  });
  EXPECT_TRUE(p.client.send_all(payload));
  EXPECT_EQ(received.get(), payload);  // byte-exact, not just same length
}

// The EPIPE path: once the peer is gone, send_all must return false on
// the worker holding the connection — and the process must survive (no
// SIGPIPE). This is what keeps `cvmt serve` alive when a client vanishes
// mid-response.
TEST(Socket, SendAllReturnsFalseWhenThePeerIsGone) {
  Pair p = make_pair();
  p.server.close();  // the peer hangs up
  // The first send may land in the kernel buffer and elicit an RST; keep
  // writing until the error surfaces. A bounded loop: each send is 1 MiB,
  // so a handful of iterations is enough for any kernel.
  const std::string chunk(1u << 20, 'x');
  bool failed = false;
  for (int i = 0; i < 64 && !failed; ++i)
    failed = !p.client.send_all(chunk);
  EXPECT_TRUE(failed);
  // Still alive, and the stream stays safely unusable, not UB.
  EXPECT_FALSE(p.client.send_all("more"));
}

TEST(Socket, SendAllOnAnInvalidStreamFailsCleanly) {
  TcpStream invalid;
  EXPECT_FALSE(invalid.valid());
  EXPECT_FALSE(invalid.send_all("data"));
  EXPECT_TRUE(invalid.send_all(""));  // nothing to send, nothing to fail
}

// The server's stop handshake: shutdown() from another thread wakes an
// accept_one() blocked on the listener with an invalid stream, leaves
// the descriptor open until the accepting thread is joined, and close()
// afterwards is clean (and idempotent).
TEST(Socket, ShutdownWakesABlockedAcceptBeforeClose) {
  TcpListener listener = TcpListener::bind_local(0);
  std::promise<void> entered;
  std::thread acceptor([&listener, &entered] {
    entered.set_value();
    const TcpStream stream = listener.accept_one();
    EXPECT_FALSE(stream.valid());
  });
  entered.get_future().wait();
  // Give accept(2) a moment to block; shutdown() must wake it either way.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  listener.shutdown();
  acceptor.join();
  EXPECT_TRUE(listener.valid());  // shut down, not closed
  EXPECT_FALSE(listener.accept_one().valid());  // stays woken
  listener.close();
  EXPECT_FALSE(listener.valid());
  listener.close();
  listener.shutdown();  // no-op once closed
}

TEST(Socket, RecvReportsOrderlyShutdownAsZero) {
  Pair p = make_pair();
  ASSERT_TRUE(p.client.send_all("bye"));
  p.client.close();
  std::array<char, 16> buf;
  long n = p.server.recv_some(buf.data(), buf.size());
  EXPECT_EQ(n, 3);
  n = p.server.recv_some(buf.data(), buf.size());
  EXPECT_EQ(n, 0);  // orderly EOF, not an error
}

}  // namespace
}  // namespace cvmt
