#include "serve/server.hpp"

#include <array>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <thread>
#include <utility>

#include "serve/protocol.hpp"
#include "serve/router.hpp"
#include "support/args.hpp"
#include "support/check.hpp"
#include "support/version.hpp"

namespace cvmt {
namespace {

using SteadyClock = std::chrono::steady_clock;

std::uint64_t elapsed_us(SteadyClock::time_point since) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          SteadyClock::now() - since)
          .count());
}

}  // namespace

void ServeServer::Connection::send_line(std::string_view line) {
  std::lock_guard<std::mutex> lock(write_mu);
  if (!alive.load()) return;
  std::string framed(line);
  framed += '\n';
  if (!stream.send_all(framed)) alive.store(false);
}

ServeServer::ServeServer(ServeConfig config, ArtifactCache& cache)
    : config_(config), cache_(cache) {}

ServeServer::~ServeServer() {
  if (started_) stop();
}

void ServeServer::start() {
  CVMT_CHECK_MSG(!started_, "ServeServer::start() called twice");
  std::size_t workers = config_.workers;
  if (workers == 0) {
    workers = std::thread::hardware_concurrency();
    if (workers == 0) workers = 1;
  }
  pool_ = std::make_unique<ServeWorkerPool>(workers, config_.queue_capacity,
                                            cache_);
  metrics_ = std::make_unique<ServeMetrics>(workers);
  listener_ = TcpListener::bind_local(config_.port);
  port_ = listener_.port();
  started_at_ = SteadyClock::now();
  started_ = true;
  accept_thread_ = std::thread(&ServeServer::accept_loop, this);
  if (config_.verbose)
    std::fprintf(stderr,
                 "cvmt serve: listening on 127.0.0.1:%u (%zu workers, "
                 "queue %zu) — %s\n",
                 static_cast<unsigned>(port_), workers,
                 config_.queue_capacity, version_string().c_str());
}

void ServeServer::request_stop() {
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    stop_requested_ = true;
  }
  stop_cv_.notify_all();
}

bool ServeServer::wait_stop_requested_for(std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(stop_mu_);
  return stop_cv_.wait_for(lock, timeout,
                           [this] { return stop_requested_; });
}

void ServeServer::stop() {
  request_stop();
  std::call_once(stop_once_, [this] {
    // The drain ordering is the whole contract: (1) no new work — stop
    // accepting connections and flip draining_ so readers answer
    // "shutting_down"; (2) every admitted job completes and its response
    // is written (pool drain); (3) only then shut the client connections
    // down and join the readers. A job admitted before (1) is never lost,
    // and nothing re-runs, so nothing is duplicated.
    //
    // The listener closes only after the accept thread is joined: closing
    // under a blocked accept(2) would race on the descriptor (and could
    // accept on a recycled one).
    draining_.store(true);
    listener_.shutdown();
    if (accept_thread_.joinable()) accept_thread_.join();
    listener_.close();
    if (pool_) pool_->drain();

    std::vector<std::shared_ptr<Connection>> conns;
    std::vector<std::thread> readers;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conns = conns_;
      readers = std::move(readers_);
    }
    // Read-side shutdown only: blocked readers wake with EOF, readers
    // mid-request still deliver their (rejection) responses — every
    // request a reader counted as received gets its one response out
    // before the write side goes down below.
    for (const std::shared_ptr<Connection>& c : conns)
      c->stream.shutdown_read();
    for (std::thread& t : readers)
      if (t.joinable()) t.join();
    for (const std::shared_ptr<Connection>& c : conns) {
      c->alive.store(false);
      c->stream.shutdown_both();
    }
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conns_.clear();
    }
    if (config_.verbose)
      std::fprintf(stderr, "cvmt serve: drained — %s\n",
                   stats_json().get("requests").dump(-1).c_str());
  });
}

void ServeServer::accept_loop() {
  for (;;) {
    TcpStream stream = listener_.accept_one();
    if (!stream.valid()) return;  // listener closed: shutdown
    auto conn = std::make_shared<Connection>(std::move(stream));
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.push_back(conn);
    readers_.emplace_back(&ServeServer::connection_loop, this, conn);
  }
}

void ServeServer::connection_loop(const std::shared_ptr<Connection>& conn) {
  // The cap applies to a line's content: neither the '\n' nor the
  // optional '\r' before it counts against kMaxRequestLine. Past the cap
  // the framing cannot recover, so the server answers and hangs up.
  const auto reject_oversized = [&] {
    metrics_->on_received();
    metrics_->on_protocol_error();
    conn->send_line(error_response(JsonValue(), ServeError::kOversized,
                                   "request line exceeds " +
                                       std::to_string(kMaxRequestLine) +
                                       " bytes"));
    conn->alive.store(false);
    conn->stream.shutdown_both();
  };
  std::string buf;
  std::array<char, 16384> chunk;
  for (;;) {
    std::size_t pos;
    while ((pos = buf.find('\n')) != std::string::npos) {
      std::string_view line(buf.data(), pos);
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      if (line.size() > kMaxRequestLine) {
        reject_oversized();
        return;
      }
      if (!line.empty()) handle_line(conn, line);
      buf.erase(0, pos + 1);
    }
    // No terminator buffered yet; a trailing '\r' may be half of one.
    if (buf.size() - (buf.ends_with('\r') ? 1 : 0) > kMaxRequestLine) {
      reject_oversized();
      return;
    }
    const long n = conn->stream.recv_some(chunk.data(), chunk.size());
    if (n <= 0) {
      // Orderly close or error — either way the client is gone. Any jobs
      // it admitted still run; their responses drop on the dead
      // connection without wedging a worker.
      conn->alive.store(false);
      return;
    }
    buf.append(chunk.data(), static_cast<std::size_t>(n));
  }
}

void ServeServer::handle_line(const std::shared_ptr<Connection>& conn,
                              std::string_view line) {
  metrics_->on_received();
  Request req;
  try {
    req = parse_request(line);
  } catch (const RequestError& e) {
    metrics_->on_protocol_error();
    conn->send_line(error_response(e.id(), e.code(), e.what()));
    return;
  }
  switch (req.type) {
    case RequestType::kPing: {
      JsonValue result = JsonValue::object();
      result.set("pong", true);
      result.set("version", version_string());
      conn->send_line(ok_response(req.id, std::move(result)));
      metrics_->on_inline_served();
      return;
    }
    case RequestType::kStats: {
      conn->send_line(ok_response(req.id, stats_json()));
      metrics_->on_inline_served();
      return;
    }
    case RequestType::kShutdown: {
      // Ack first (the requester deserves a response), then flip
      // draining_ so every later work request on any connection is
      // rejected deterministically, then wake whoever owns the server.
      JsonValue result = JsonValue::object();
      result.set("draining", true);
      conn->send_line(ok_response(req.id, std::move(result)));
      metrics_->on_inline_served();
      draining_.store(true);
      request_stop();
      return;
    }
    case RequestType::kExperiment:
    case RequestType::kRun:
    case RequestType::kFuzz:
      submit_work(conn, std::move(req));
      return;
  }
}

void ServeServer::submit_work(const std::shared_ptr<Connection>& conn,
                              Request req) {
  if (draining_.load()) {
    metrics_->on_rejected_draining();
    conn->send_line(error_response(req.id, ServeError::kShuttingDown,
                                   "server is draining; request not "
                                   "admitted"));
    return;
  }
  const SteadyClock::time_point admitted_at = SteadyClock::now();
  const JsonValue req_id = req.id;  // the job consumes req; keep the id
  ServeWorkerPool::Job job =
      [this, conn, req = std::move(req), admitted_at](
          std::size_t worker, SimSession& session) {
        const SteadyClock::time_point exec_start = SteadyClock::now();
        std::string response;
        bool ok = true;
        try {
          response = ok_response(req.id, execute_request(req, session));
        } catch (const RequestError& e) {
          ok = false;
          response = error_response(e.id(), e.code(), e.what());
        } catch (const std::exception& e) {
          ok = false;
          response = error_response(req.id, ServeError::kInternal, e.what());
        }
        // Record before writing: a client that sees the response and
        // immediately asks for stats must find this job counted.
        metrics_->on_job_done(worker, to_string(req.type), ok,
                              elapsed_us(admitted_at),
                              elapsed_us(exec_start));
        conn->send_line(response);
      };
  switch (pool_->try_submit(std::move(job))) {
    case ServeWorkerPool::Submit::kAccepted:
      metrics_->on_queue_depth(pool_->queue_depth());
      return;
    case ServeWorkerPool::Submit::kFull:
      metrics_->on_rejected_overload();
      conn->send_line(error_response(
          req_id, ServeError::kOverloaded,
          "admission queue full; retry after the suggested backoff",
          retry_after_ms_estimate()));
      return;
    case ServeWorkerPool::Submit::kClosed:
      metrics_->on_rejected_draining();
      conn->send_line(error_response(req_id, ServeError::kShuttingDown,
                                     "server is draining; request not "
                                     "admitted"));
      return;
  }
}

std::uint64_t ServeServer::retry_after_ms_estimate() const {
  // Rough expected wait for a queue slot: a full queue's worth of work
  // spread over the workers, at the observed mean execution time. Floors
  // at 1ms so clients always get a non-zero backoff.
  const std::uint64_t mean_us = metrics_->mean_exec_us();
  const std::uint64_t waves =
      pool_->capacity() / pool_->num_workers() + 1;
  const std::uint64_t ms = mean_us * waves / 1000;
  return ms < 1 ? 1 : ms;
}

JsonValue ServeServer::stats_json() const {
  JsonValue out = JsonValue::object();
  out.set("version", version_string());
  out.set("uptime_ms", elapsed_us(started_at_) / 1000);
  out.set("draining", draining_.load());

  const JsonValue m = metrics_->to_json();
  out.set("requests", m.get("requests"));

  JsonValue queue = JsonValue::object();
  queue.set("depth", static_cast<std::uint64_t>(pool_->queue_depth()));
  queue.set("capacity", static_cast<std::uint64_t>(pool_->capacity()));
  queue.set("high_water", m.get("queue_high_water"));
  out.set("queue", std::move(queue));

  out.set("workers", m.get("workers"));

  const ArtifactCacheStats cs = cache_.stats();
  JsonValue cache = JsonValue::object();
  cache.set("artifacts", static_cast<std::uint64_t>(cache_.size()));
  cache.set("hits", cs.hits());
  cache.set("misses", cs.misses());
  cache.set("hit_rate", cs.hit_rate());
  JsonValue kinds = JsonValue::object();
  JsonValue schemes = JsonValue::object();
  schemes.set("hits", cs.scheme_hits);
  schemes.set("misses", cs.scheme_misses);
  kinds.set("schemes", std::move(schemes));
  JsonValue programs = JsonValue::object();
  programs.set("hits", cs.program_hits);
  programs.set("misses", cs.program_misses);
  kinds.set("programs", std::move(programs));
  JsonValue workloads = JsonValue::object();
  workloads.set("hits", cs.workload_hits);
  workloads.set("misses", cs.workload_misses);
  kinds.set("workloads", std::move(workloads));
  cache.set("kinds", std::move(kinds));
  out.set("cache", std::move(cache));

  out.set("latency", m.get("latency"));
  return out;
}

namespace {

// SIGTERM/SIGINT land here; the serve_main loop polls the flag. Plain
// sig_atomic_t keeps the handler async-signal-safe — no condition
// variables, no locks.
volatile std::sig_atomic_t g_serve_signal = 0;

void serve_signal_handler(int) { g_serve_signal = 1; }

}  // namespace

int serve_main(int argc, const char* const* argv) {
  ArgParser args("cvmt serve",
                 "Long-lived experiment daemon: line-delimited JSON over "
                 "TCP with a warm artifact cache and a bounded worker "
                 "pool. See DESIGN.md §11 for the protocol.");
  args.add_u64("port", "N",
               "TCP port on 127.0.0.1 (0 picks an ephemeral port and "
               "prints it)");
  args.add_u64("workers", "K", "worker threads (0 = all hardware cores)");
  args.add_u64("queue", "N", "admission queue capacity");
  args.add_string("port-file", "FILE",
                  "write the bound port to FILE once listening (for "
                  "scripts using --port=0)");
  args.add_flag("quiet", "suppress the startup/drain log lines");
  switch (args.parse(argc, argv)) {
    case ArgParser::Outcome::kHelp: return 0;
    case ArgParser::Outcome::kError: return 2;
    case ArgParser::Outcome::kOk: break;
  }

  const std::uint64_t port = args.get_u64("port", 0);
  if (port > 65535) {
    std::fprintf(stderr, "cvmt serve: --port must be <= 65535\n");
    return 2;
  }
  ServeConfig config;
  config.port = static_cast<std::uint16_t>(port);
  config.workers = static_cast<std::size_t>(args.get_u64("workers", 0));
  config.queue_capacity =
      static_cast<std::size_t>(args.get_u64("queue", 256));
  if (config.queue_capacity == 0) {
    std::fprintf(stderr, "cvmt serve: --queue must be >= 1\n");
    return 2;
  }
  config.verbose = !args.get_flag("quiet");

  ServeServer server(config);
  try {
    server.start();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cvmt serve: %s\n", e.what());
    return 2;
  }

  const std::string port_file = args.get_string("port-file", "");
  if (!port_file.empty()) {
    std::ofstream out(port_file);
    out << server.port() << '\n';
    if (!out) {
      std::fprintf(stderr, "cvmt serve: cannot write --port-file %s\n",
                   port_file.c_str());
      server.stop();
      return 2;
    }
  }

  g_serve_signal = 0;
  struct sigaction action = {};
  action.sa_handler = serve_signal_handler;
  sigemptyset(&action.sa_mask);
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);

  // Poll both stop sources: the signal flag (async-signal-safe handler
  // above) and request_stop() from a `shutdown` request.
  for (;;) {
    if (server.wait_stop_requested_for(std::chrono::milliseconds(100)))
      break;
    if (g_serve_signal != 0) break;
  }
  if (config.verbose && g_serve_signal != 0)
    std::fprintf(stderr, "cvmt serve: signal received, draining\n");
  server.stop();
  return 0;
}

}  // namespace cvmt
