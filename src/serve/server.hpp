// `cvmt serve` — the long-lived experiment daemon.
//
// One accept loop, one reader thread per connection, one bounded
// WorkerPool (sim/worker_pool.hpp) executing work requests against the
// shared process-wide ArtifactCache, which stays warm across requests —
// the whole point of residency: the second request for a scheme or
// workload an earlier request compiled pays only the run, never the
// build. An `experiment` request's batch runs inline on the worker that
// admitted it, on that worker's session.
//
// Life of a request: the connection reader frames one line, parses it,
// and either answers inline (ping/stats/shutdown and every protocol
// error) or admits it to the pool. Admission is where backpressure
// lives: a full queue yields an "overloaded" error with a retry_after_ms
// estimate and executes nothing. Once admitted, a job is guaranteed a
// response — including across graceful shutdown.
//
// Graceful shutdown (SIGTERM, `shutdown` request, or stop()): stop
// accepting connections, reject new work with "shutting_down", drain the
// queue MergeExecutor-style (workers finish everything admitted), and
// only then shut client connections down. Zero lost, zero duplicated.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/metrics.hpp"
#include "serve/protocol.hpp"
#include "sim/worker_pool.hpp"
#include "support/json.hpp"
#include "support/socket.hpp"

namespace cvmt {

struct ServeConfig {
  std::uint16_t port = 0;     ///< 0 = ephemeral (read back via port())
  std::size_t workers = 0;    ///< 0 = one per hardware core
  std::size_t queue_capacity = 256;
  bool verbose = false;       ///< startup/drain lines on stderr
};

class ServeServer {
 public:
  explicit ServeServer(ServeConfig config,
                       ArtifactCache& cache = ArtifactCache::global());
  ServeServer(const ServeServer&) = delete;
  ServeServer& operator=(const ServeServer&) = delete;
  /// stop()s (full graceful drain) when still running.
  ~ServeServer();

  /// Binds the port and launches the accept loop and worker pool.
  /// Throws CheckError when the port cannot be bound.
  void start();

  /// The bound port (after start(); meaningful with config.port == 0).
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Asks for a stop without performing it: wakes wait_stop_requested().
  /// Called by the `shutdown` request handler and by signal-watching
  /// outer loops; the thread that owns the server then calls stop().
  void request_stop();

  /// Blocks up to `timeout` for request_stop(); true when requested.
  [[nodiscard]] bool wait_stop_requested_for(
      std::chrono::milliseconds timeout);

  /// Graceful drain: stop admission, complete every admitted job, write
  /// every response, then close connections and join all threads.
  /// Idempotent; concurrent callers block until the drain completes.
  void stop();

  /// The `stats` response payload (also useful for tests/benches).
  [[nodiscard]] JsonValue stats_json() const;

  [[nodiscard]] std::size_t num_workers() const {
    return pool_ ? pool_->num_workers() : 0;
  }

 private:
  /// One client connection: the stream plus the write-side mutex that
  /// serializes response lines from the reader (inline responses) and
  /// any worker (job responses). Held by shared_ptr — a worker may
  /// outlive the reader that admitted its job.
  struct Connection {
    explicit Connection(TcpStream s) : stream(std::move(s)) {}
    TcpStream stream;
    std::mutex write_mu;
    std::atomic<bool> alive{true};

    /// Writes `line` + '\n'; on failure marks the connection dead (the
    /// client disconnected — the job's work is kept, its response
    /// dropped, the worker moves on unwedged).
    void send_line(std::string_view line);
  };

  void accept_loop();
  void connection_loop(const std::shared_ptr<Connection>& conn);
  void handle_line(const std::shared_ptr<Connection>& conn,
                   std::string_view line);
  void submit_work(const std::shared_ptr<Connection>& conn, Request req);
  [[nodiscard]] std::uint64_t retry_after_ms_estimate() const;

  ServeConfig config_;
  ArtifactCache& cache_;
  std::uint16_t port_ = 0;

  TcpListener listener_;
  std::unique_ptr<WorkerPool> pool_;
  std::unique_ptr<ServeMetrics> metrics_;
  std::chrono::steady_clock::time_point started_at_;

  std::thread accept_thread_;
  std::mutex conns_mu_;
  std::vector<std::shared_ptr<Connection>> conns_;
  std::vector<std::thread> readers_;

  std::atomic<bool> draining_{false};

  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool stop_requested_ = false;
  std::once_flag stop_once_;
  bool started_ = false;
};

/// `cvmt serve [--port=N] [--workers=K] [--queue=N] [--port-file=FILE]`.
/// Runs until SIGTERM/SIGINT or a `shutdown` request, then drains
/// gracefully. Exit 0 after a clean drain, 2 on usage/bind errors.
[[nodiscard]] int serve_main(int argc, const char* const* argv);

}  // namespace cvmt
