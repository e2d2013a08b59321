// The serve layer end to end over real sockets: protocol robustness
// (malformed JSON, unknown ids, oversized lines, mid-request
// disconnects), backpressure, graceful drain with zero lost jobs, and
// the byte-identity bridge between a serve response and the equivalent
// `cvmt run --format=json` output.
#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <future>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "exp/driver.hpp"
#include "exp/registry.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "sim/session.hpp"
#include "support/socket.hpp"
#include "support/version.hpp"

namespace cvmt {
namespace {

/// One test server over its own artifact cache (never the process-global
/// one — tests must not warm each other's caches).
struct TestServer {
  explicit TestServer(std::size_t workers = 2, std::size_t queue = 64) {
    ServeConfig config;
    config.port = 0;
    config.workers = workers;
    config.queue_capacity = queue;
    server = std::make_unique<ServeServer>(config, cache);
    server->start();
  }
  ~TestServer() { server->stop(); }

  ArtifactCache cache;
  std::unique_ptr<ServeServer> server;
};

/// Minimal line-framed client.
struct Client {
  explicit Client(std::uint16_t port) : stream(connect_local(port)) {}

  void send_line(std::string line) {
    line += '\n';
    ASSERT_TRUE(stream.send_all(line));
  }

  /// Next response line; empty optional-style: ok=false on EOF.
  [[nodiscard]] bool recv_line(std::string* out) {
    for (;;) {
      const std::size_t pos = buf.find('\n');
      if (pos != std::string::npos) {
        *out = buf.substr(0, pos);
        buf.erase(0, pos + 1);
        return true;
      }
      std::array<char, 8192> chunk;
      const long n = stream.recv_some(chunk.data(), chunk.size());
      if (n <= 0) return false;
      buf.append(chunk.data(), static_cast<std::size_t>(n));
    }
  }

  [[nodiscard]] JsonValue request(const std::string& line) {
    send_line(line);
    std::string response;
    EXPECT_TRUE(recv_line(&response));
    return JsonValue::parse(response);
  }

  TcpStream stream;
  std::string buf;
};

std::string run_request(int id, std::string_view scheme,
                        std::uint64_t budget) {
  JsonValue req = JsonValue::object();
  req.set("id", "r" + std::to_string(id));
  req.set("type", "run");
  req.set("scheme", scheme);
  JsonValue benchmarks = JsonValue::array();
  for (const char* b : {"mcf", "bzip2", "blowfish", "gsmencode"})
    benchmarks.push_back(b);
  req.set("benchmarks", std::move(benchmarks));
  JsonValue config = JsonValue::object();
  config.set("budget", budget);
  req.set("config", std::move(config));
  return req.dump(-1);
}

std::string error_code_of(const JsonValue& response) {
  EXPECT_FALSE(response.get("ok").as_bool());
  return response.get("error").get("code").as_string();
}

// --- inline requests ------------------------------------------------------

TEST(Serve, PingReportsVersion) {
  TestServer ts;
  Client c(ts.server->port());
  const JsonValue r = c.request(R"({"id":1,"type":"ping"})");
  EXPECT_TRUE(r.get("ok").as_bool());
  EXPECT_EQ(r.get("id").as_int(), 1);
  EXPECT_TRUE(r.get("result").get("pong").as_bool());
  EXPECT_EQ(r.get("result").get("version").as_string(), version_string());
}

TEST(Serve, VersionStringHasTheExpectedShape) {
  const std::string v = version_string();
  EXPECT_NE(v.find("cvmt "), std::string::npos);
  EXPECT_NE(v.find('('), std::string::npos);
  EXPECT_FALSE(std::string(git_describe()).empty());
  EXPECT_FALSE(std::string(build_type()).empty());
}

TEST(Serve, StatsReportsTheFullSchema) {
  TestServer ts(/*workers=*/3);
  Client c(ts.server->port());
  for (int i = 0; i < 2; ++i)
    EXPECT_TRUE(c.request(run_request(i, "2SC3", 1000)).get("ok").as_bool());

  const JsonValue r = c.request(R"({"id":"s","type":"stats"})");
  ASSERT_TRUE(r.get("ok").as_bool());
  const JsonValue& s = r.get("result");
  EXPECT_EQ(s.get("version").as_string(), version_string());
  EXPECT_GE(s.get("uptime_ms").as_int(), 0);
  EXPECT_FALSE(s.get("draining").as_bool());
  EXPECT_EQ(s.get("requests").get("completed").as_int(), 2);
  EXPECT_EQ(s.get("queue").get("capacity").as_int(), 64);
  EXPECT_EQ(s.get("workers").size(), 3u);
  // The second identical run hits every artifact the first one built.
  EXPECT_GT(s.get("cache").get("hits").as_int(), 0);
  EXPECT_GT(s.get("cache").get("misses").as_int(), 0);
  EXPECT_GT(s.get("cache").get("artifacts").as_int(), 0);
  EXPECT_EQ(s.get("latency").get("run").get("count").as_int(), 2);
  EXPECT_GT(s.get("latency").get("all").get("p50_us").as_int(), 0);
}

// --- protocol robustness --------------------------------------------------

TEST(Serve, MalformedJsonGetsErrorAndConnectionSurvives) {
  TestServer ts;
  Client c(ts.server->port());
  EXPECT_EQ(error_code_of(c.request("{this is not json")), "bad_json");
  EXPECT_EQ(error_code_of(c.request("[1,2,3]")), "bad_json");
  // The connection (and its worker) is not wedged.
  EXPECT_TRUE(c.request(R"({"id":2,"type":"ping"})").get("ok").as_bool());
}

// A line that is not JSON gets bad_json with a message naming the byte
// offset, written for the client: no source path.
TEST(Serve, BadJsonNamesTheOffsetWithoutASourcePath) {
  TestServer ts;
  Client c(ts.server->port());
  const JsonValue r = c.request(R"({"id":1,)");
  EXPECT_EQ(error_code_of(r), "bad_json");
  const std::string message = r.get("error").get("message").as_string();
  EXPECT_NE(message.find("JSON parse error at offset 8"), std::string::npos)
      << message;
  EXPECT_EQ(message.find("CVMT_CHECK"), std::string::npos) << message;
  EXPECT_EQ(message.find(".cpp:"), std::string::npos) << message;
}

// Two inputs that would overflow the stack of a recursive parser without
// a depth cap: a JSON nesting bomb and a run request whose scheme nests
// C( 100,000 deep. Each gets an error line of bounded size, and the
// daemon answers the ping after them.
TEST(Serve, DeepNestingGetsErrorsAndTheDaemonSurvives) {
  TestServer ts;
  Client c(ts.server->port());
  c.send_line(std::string(50'000, '['));
  std::string scheme;
  for (int i = 0; i < 100'000; ++i) scheme += "C(";
  c.send_line(run_request(1, scheme, 1'000));
  c.send_line(R"({"id":2,"type":"ping"})");
  std::string line;
  ASSERT_TRUE(c.recv_line(&line));
  EXPECT_EQ(error_code_of(JsonValue::parse(line)), "bad_json");
  ASSERT_TRUE(c.recv_line(&line));
  EXPECT_EQ(error_code_of(JsonValue::parse(line)), "bad_request");
  EXPECT_LT(line.size(), 1'000u) << line;
  ASSERT_TRUE(c.recv_line(&line));
  EXPECT_TRUE(JsonValue::parse(line).get("ok").as_bool()) << line;
}

TEST(Serve, UnknownExperimentAndTypeAndFields) {
  TestServer ts;
  Client c(ts.server->port());
  EXPECT_EQ(error_code_of(c.request(
                R"({"id":1,"type":"experiment","experiment":"nope"})")),
            "unknown_experiment");
  EXPECT_EQ(error_code_of(c.request(R"({"id":2,"type":"frobnicate"})")),
            "unknown_type");
  // The differential fuzz sweep has one entry point, `cvmt fuzz`.
  EXPECT_EQ(error_code_of(c.request(R"({"id":6,"type":"fuzz"})")),
            "unknown_type");
  EXPECT_EQ(error_code_of(c.request(R"({"id":3,"type":"run"})")),
            "bad_request");
  EXPECT_EQ(error_code_of(c.request(
                R"({"id":4,"type":"ping","extra":true})")),
            "bad_request");
  EXPECT_EQ(error_code_of(c.request(
                R"({"id":5,"type":"run","scheme":"2SC3",)"
                R"("benchmarks":["mcf"],"config":{"stats":"verbose"}})")),
            "bad_request");
  // The id is echoed even on rejected requests.
  const JsonValue r =
      c.request(R"({"id":"echo-me","type":"run","scheme":"bogus!!"})");
  EXPECT_EQ(r.get("id").as_string(), "echo-me");
  EXPECT_EQ(error_code_of(r), "bad_request");
}

// Requests carry no lane count: "lanes" is an unknown field like any
// other, rejected before the request is admitted.
TEST(Serve, ExperimentParamsRejectLanes) {
  TestServer ts;
  Client c(ts.server->port());
  const JsonValue r = c.request(
      R"({"id":7,"type":"experiment","experiment":"fig10",)"
      R"("params":{"fast":true,"lanes":2}})");
  EXPECT_EQ(r.get("id").as_int(), 7);
  EXPECT_EQ(error_code_of(r), "bad_request");
  EXPECT_EQ(r.get("error").get("message").as_string(),
            "unknown field \"lanes\" in \"params\"");
}

// A bad entry in a filter is a bad_request that names the entry and the
// knob; the message is written for the client and carries no source path.
TEST(Serve, BadSchemeFilterNamesTheSchemeWithoutASourcePath) {
  TestServer ts;
  Client c(ts.server->port());
  const JsonValue r = c.request(
      R"({"id":8,"type":"experiment","experiment":"fig10",)"
      R"("params":{"fast":true,"schemes":["2SC3",""]}})");
  EXPECT_EQ(r.get("id").as_int(), 8);
  EXPECT_EQ(error_code_of(r), "bad_request");
  const std::string message = r.get("error").get("message").as_string();
  EXPECT_NE(message.find("bad scheme \"\" in \"schemes\""),
            std::string::npos)
      << message;
  EXPECT_EQ(message.find("CVMT_CHECK"), std::string::npos) << message;
  EXPECT_EQ(message.find(".cpp:"), std::string::npos) << message;
}

TEST(Serve, OversizedLineIsRejectedAndClosed) {
  TestServer ts;
  Client c(ts.server->port());
  std::string huge = R"({"id":1,"type":"ping","pad":")";
  huge.append(kMaxRequestLine, 'x');
  huge += "\"}";
  c.send_line(huge);
  std::string response;
  ASSERT_TRUE(c.recv_line(&response));
  EXPECT_EQ(error_code_of(JsonValue::parse(response)), "oversized");
  // After the error the server hangs up (framing is unrecoverable).
  EXPECT_FALSE(c.recv_line(&response));
  // And the server keeps serving fresh connections.
  Client c2(ts.server->port());
  EXPECT_TRUE(c2.request(R"({"id":1,"type":"ping"})").get("ok").as_bool());
}

// The line cap at its edge, under both terminators: the cap counts the
// line's content, never its "\n" or the "\r" of a "\r\n".
TEST(Serve, LineCapCountsContentNotTerminator) {
  TestServer ts;
  // A ping padded with trailing JSON whitespace to exactly `size` bytes.
  const auto ping_of_size = [](std::size_t size) {
    std::string line = R"({"id":1,"type":"ping"})";
    line.append(size - line.size(), ' ');
    return line;
  };
  for (const std::string terminator : {"\n", "\r\n"}) {
    SCOPED_TRACE(terminator == "\n" ? "LF" : "CRLF");
    {
      // kMaxRequestLine bytes: answered, and the connection stays open.
      Client c(ts.server->port());
      ASSERT_TRUE(
          c.stream.send_all(ping_of_size(kMaxRequestLine) + terminator));
      std::string response;
      ASSERT_TRUE(c.recv_line(&response));
      EXPECT_TRUE(JsonValue::parse(response).get("ok").as_bool())
          << response;
      EXPECT_TRUE(
          c.request(R"({"id":2,"type":"ping"})").get("ok").as_bool());
    }
    {
      // One byte more: oversized, and the server hangs up. The send may
      // fail once the server has closed, so its result is not asserted.
      Client c(ts.server->port());
      (void)c.stream.send_all(ping_of_size(kMaxRequestLine + 1) +
                              terminator);
      std::string response;
      ASSERT_TRUE(c.recv_line(&response));
      EXPECT_EQ(error_code_of(JsonValue::parse(response)), "oversized");
      EXPECT_FALSE(c.recv_line(&response));
    }
  }
}

TEST(Serve, MidRequestDisconnectDoesNotWedgeAWorker) {
  TestServer ts(/*workers=*/1);
  {
    Client c(ts.server->port());
    // Half a request, no terminator — then vanish.
    ASSERT_TRUE(c.stream.send_all(R"({"id":1,"type":"ru)"));
  }
  {
    // A full request whose response has nowhere to go.
    Client c(ts.server->port());
    ASSERT_TRUE(
        c.stream.send_all(run_request(7, "2SC3", 1000) + "\n"));
  }
  // The single worker is still alive and serving.
  Client c(ts.server->port());
  EXPECT_TRUE(
      c.request(run_request(8, "2SC3", 1000)).get("ok").as_bool());
}

// A client that pipelines a burst of work and vanishes with responses
// still in flight: every send_all onto the dead socket must surface as a
// dropped connection (EPIPE via MSG_NOSIGNAL), never a SIGPIPE, and the
// accounting must stay exact — every admitted job still completes, none
// is marked failed.
TEST(Serve, PeerVanishingUnderLoadKeepsTheDaemonAliveAndAccountingExact) {
  TestServer ts(/*workers=*/2, /*queue=*/64);
  constexpr int kJobs = 16;
  {
    Client c(ts.server->port());
    for (int i = 0; i < kJobs; ++i)
      c.send_line(run_request(i, "2SC3", 500));
    // Confirm the pipeline is flowing, then hang up mid-stream.
    std::string line;
    ASSERT_TRUE(c.recv_line(&line));
  }
  // The daemon survives and finishes the admitted burst; poll its stats
  // until every job has drained.
  Client probe(ts.server->port());
  std::uint64_t runs_done = 0;
  for (int tries = 0; tries < 500; ++tries) {
    const JsonValue r = probe.request(R"({"id":"s","type":"stats"})");
    ASSERT_TRUE(r.get("ok").as_bool());
    // The run-latency count tracks completed `run` requests only (the
    // probe's own stats traffic must not satisfy the wait).
    runs_done = static_cast<std::uint64_t>(r.get("result")
                                              .get("latency")
                                              .get("run")
                                              .get("count")
                                              .as_int());
    if (runs_done >= kJobs) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(runs_done, static_cast<std::uint64_t>(kJobs));
  const JsonValue stats = ts.server->stats_json();
  const JsonValue& req = stats.get("requests");
  EXPECT_EQ(req.get("failed").as_int(), 0);
  EXPECT_EQ(req.get("rejected_overload").as_int(), 0);
  // And a fresh connection still gets real work done.
  Client c2(ts.server->port());
  EXPECT_TRUE(
      c2.request(run_request(99, "2SC3", 500)).get("ok").as_bool());
}

// --- work requests --------------------------------------------------------

TEST(Serve, ExperimentResponseMatchesCliBytes) {
  TestServer ts;
  Client c(ts.server->port());
  const JsonValue r = c.request(
      R"({"id":"e1","type":"experiment","experiment":"fig9"})");
  ASSERT_TRUE(r.get("ok").as_bool());
  const std::string serve_bytes = r.get("result").dump(2) + "\n";

  const Experiment* fig9 = ExperimentRegistry::instance().find("fig9");
  ASSERT_NE(fig9, nullptr);
  const std::string cli_bytes =
      run_to_string(*fig9, ExperimentParams{}, OutputFormat::kJson);
  EXPECT_EQ(serve_bytes, cli_bytes);
}

TEST(Serve, RunResponsesAreBitIdenticalAcrossConnectionsAndTime) {
  TestServer ts(/*workers=*/4);
  Client a(ts.server->port());
  Client b(ts.server->port());
  const JsonValue r1 = a.request(run_request(1, "2SC3", 2000));
  const JsonValue r2 = b.request(run_request(2, "2SC3", 2000));
  const JsonValue r3 = a.request(run_request(3, "2SC3", 2000));
  ASSERT_TRUE(r1.get("ok").as_bool());
  EXPECT_EQ(r1.get("result").dump(-1), r2.get("result").dump(-1));
  EXPECT_EQ(r1.get("result").dump(-1), r3.get("result").dump(-1));

  // And the numbers are the session layer's, not a serve-side variant.
  SimSession session;
  SimConfig cfg;
  cfg.instruction_budget = 2000;
  cfg.stats = StatsLevel::kFast;
  const std::vector<std::string> names = {"mcf", "bzip2", "blowfish",
                                          "gsmencode"};
  const SimResult expected = session.run(
      Scheme::parse("2SC3"), std::span<const std::string>(names), cfg);
  const JsonValue& row =
      r1.get("result").get("sections").at(0).get("rows").at(0);
  EXPECT_EQ(static_cast<std::uint64_t>(row.at(1).as_int()),
            expected.cycles);
  EXPECT_EQ(static_cast<std::uint64_t>(row.at(2).as_int()),
            expected.total_instructions);
}

// --- backpressure ---------------------------------------------------------

// Deterministic overload: one worker, queue capacity one, and the
// worker held mid-build by the cache's build hook. Requests land on one
// connection, so admission order is the send order: #1 occupies the
// worker, #2 fills the queue, #3 must be rejected with retry_after_ms.
TEST(Serve, FullQueueRejectsWithRetryAfter) {
  ServeConfig config;
  config.port = 0;
  config.workers = 1;
  config.queue_capacity = 1;
  ArtifactCache cache;
  ServeServer server(config, cache);

  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  bool first_build = true;
  cache.set_build_hook([&](std::string_view) {
    std::unique_lock<std::mutex> lock(mu);
    if (!first_build) return;
    first_build = false;
    cv.notify_all();  // tell the test the worker is held
    cv.wait(lock, [&] { return release; });
  });
  server.start();

  Client c(server.port());
  c.send_line(run_request(1, "2SC3", 1000));
  {
    // Wait until the worker is provably inside request #1's build.
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return !first_build; });
  }
  c.send_line(run_request(2, "2SC3", 1000));  // fills the queue
  // Admission is reader-serial: by the time request #3 is considered,
  // #2 is already queued, so #3 sees a full queue deterministically.
  c.send_line(run_request(3, "2SC3", 1000));

  std::string line;
  ASSERT_TRUE(c.recv_line(&line));
  const JsonValue rejected = JsonValue::parse(line);
  EXPECT_EQ(rejected.get("id").as_string(), "r3");
  EXPECT_EQ(error_code_of(rejected), "overloaded");
  EXPECT_GE(rejected.get("error").get("retry_after_ms").as_int(), 1);

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  std::set<std::string> answered;
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(c.recv_line(&line));
    const JsonValue r = JsonValue::parse(line);
    EXPECT_TRUE(r.get("ok").as_bool());
    answered.insert(r.get("id").as_string());
  }
  EXPECT_EQ(answered, (std::set<std::string>{"r1", "r2"}));
  server.stop();
}

// --- drain ----------------------------------------------------------------

TEST(Serve, ShutdownRequestAcksThenDrains) {
  TestServer ts;
  Client c(ts.server->port());
  c.send_line(run_request(1, "2SC3", 1000));
  const JsonValue ack = [&] {
    c.send_line(R"({"id":"bye","type":"shutdown"})");
    // Responses are ordered per connection here: the run completes (or
    // is admitted) before the shutdown line is even parsed, but its
    // response may arrive after the ack — collect both.
    std::string l1, l2;
    EXPECT_TRUE(c.recv_line(&l1));
    EXPECT_TRUE(c.recv_line(&l2));
    const JsonValue a = JsonValue::parse(l1), b = JsonValue::parse(l2);
    return a.get("id").kind() == JsonValue::Kind::kString &&
                   a.get("id").as_string() == "bye"
               ? a
               : b;
  }();
  EXPECT_TRUE(ack.get("ok").as_bool());
  EXPECT_TRUE(ack.get("result").get("draining").as_bool());
  EXPECT_TRUE(ts.server->wait_stop_requested_for(
      std::chrono::milliseconds(2000)));
  ts.server->stop();
  // Admission is closed: the port no longer accepts.
  EXPECT_THROW(Client{ts.server->port()}, CheckError);
}

// Zero lost jobs under a drain racing live traffic: every request the
// server *received* gets exactly one response (completed or an explicit
// shutting_down rejection), every admitted job completes, and nothing is
// answered twice.
TEST(Serve, StopUnderLoadLosesNoAdmittedJobs) {
  TestServer ts(/*workers=*/2, /*queue=*/64);
  Client c(ts.server->port());
  constexpr int kJobs = 24;
  for (int i = 0; i < kJobs; ++i)
    c.send_line(run_request(i, "2SC3", 500));
  ts.server->stop();  // races the reader mid-stream — deliberately

  std::set<std::string> answered;
  std::string line;
  std::uint64_t ok = 0, shutting_down = 0;
  while (c.recv_line(&line)) {
    const JsonValue r = JsonValue::parse(line);
    const std::string id = r.get("id").as_string();
    EXPECT_TRUE(answered.insert(id).second) << "duplicate response " << id;
    if (r.get("ok").as_bool()) {
      ++ok;
    } else {
      EXPECT_EQ(error_code_of(r), "shutting_down");
      ++shutting_down;
    }
  }
  const JsonValue stats = ts.server->stats_json();
  const JsonValue& req = stats.get("requests");
  // Everything the server received was answered exactly once...
  EXPECT_EQ(static_cast<std::uint64_t>(req.get("received").as_int()),
            answered.size());
  // ...split between completed work and explicit rejections: admitted
  // jobs are never dropped by the drain.
  EXPECT_EQ(req.get("completed").as_int(), static_cast<int>(ok));
  EXPECT_EQ(req.get("rejected_draining").as_int(),
            static_cast<int>(shutting_down));
  EXPECT_EQ(req.get("failed").as_int(), 0);
}

// --- flags ----------------------------------------------------------------

// --workers above the knob cap is a usage error before any thread starts.
// Were it accepted, serve_main would run a daemon until a signal, so the
// wait is bounded and SIGTERM (the daemon's own stop signal) ends it.
TEST(Serve, WorkersAboveTheCapAreRejectedBeforeAnythingStarts) {
  const char* argv[] = {"cvmt serve", "--port=0", "--quiet",
                        "--workers=1025"};
  auto code = std::async(std::launch::async, [&argv] {
    return serve_main(static_cast<int>(std::size(argv)), argv);
  });
  if (code.wait_for(std::chrono::seconds(30)) != std::future_status::ready) {
    ADD_FAILURE() << "serve_main started a daemon for --workers=1025";
    std::raise(SIGTERM);
  }
  EXPECT_EQ(code.get(), 2);
}

// --- scale ----------------------------------------------------------------

// The acceptance bar: >= 1000 small runs across concurrent pipelined
// clients, every response ok and the result payload bit-identical across
// all of them (same request => same bytes, any worker, any connection).
TEST(Serve, ThousandPipelinedRunsAreBitIdentical) {
  TestServer ts(/*workers=*/0, /*queue=*/2048);  // 0 = all cores
  constexpr int kConnections = 4;
  constexpr int kPerConnection = 250;

  std::vector<std::future<std::vector<std::string>>> futures;
  futures.reserve(kConnections);
  for (int conn = 0; conn < kConnections; ++conn)
    futures.push_back(std::async(std::launch::async, [&ts, conn] {
      Client c(ts.server->port());
      for (int i = 0; i < kPerConnection; ++i) {
        JsonValue req = JsonValue::parse(
            run_request(conn * kPerConnection + i, "2SC3", 500));
        c.send_line(req.dump(-1));
      }
      std::vector<std::string> results;
      std::string line;
      for (int i = 0; i < kPerConnection; ++i) {
        if (!c.recv_line(&line)) break;
        const JsonValue r = JsonValue::parse(line);
        EXPECT_TRUE(r.get("ok").as_bool());
        results.push_back(r.get("result").dump(-1));
      }
      return results;
    }));

  std::vector<std::string> all;
  for (auto& f : futures) {
    std::vector<std::string> part = f.get();
    all.insert(all.end(), part.begin(), part.end());
  }
  ASSERT_EQ(all.size(),
            static_cast<std::size_t>(kConnections * kPerConnection));
  for (const std::string& result : all) EXPECT_EQ(result, all.front());

  const JsonValue stats = ts.server->stats_json();
  EXPECT_EQ(stats.get("requests").get("completed").as_int(),
            kConnections * kPerConnection);
  // 1000 runs, a handful of builds: the warm cache is doing the work.
  EXPECT_GT(stats.get("cache").get("hit_rate").as_double(), 0.99);
}

}  // namespace
}  // namespace cvmt
