#include "serve/client.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/protocol.hpp"
#include "support/args.hpp"
#include "support/check.hpp"
#include "support/socket.hpp"
#include "support/string_util.hpp"
#include "trace/benchmark_suite.hpp"

namespace cvmt {
namespace {

using SteadyClock = std::chrono::steady_clock;

/// Line-framed view over a TcpStream: send whole request lines, receive
/// whole response lines (buffering partial reads).
class LineConn {
 public:
  explicit LineConn(TcpStream stream) : stream_(std::move(stream)) {}

  [[nodiscard]] bool send_line(std::string line) {
    line += '\n';
    return stream_.send_all(line);
  }

  /// Next response line, stripped of the terminator; false on EOF/error.
  [[nodiscard]] bool recv_line(std::string* out) {
    for (;;) {
      const std::size_t pos = buf_.find('\n');
      if (pos != std::string::npos) {
        *out = buf_.substr(0, pos);
        if (!out->empty() && out->back() == '\r') out->pop_back();
        buf_.erase(0, pos + 1);
        return true;
      }
      std::array<char, 16384> chunk;
      const long n = stream_.recv_some(chunk.data(), chunk.size());
      if (n <= 0) return false;
      buf_.append(chunk.data(), static_cast<std::size_t>(n));
    }
  }

 private:
  TcpStream stream_;
  std::string buf_;
};

/// Copies the sim-level fields (--fast/--budget/.../--machine) into a
/// request "params" or "config" object; only flags the user actually set
/// are sent, so the server's own defaulting stays authoritative.
void fill_sim_fields(const ArgParser& args, JsonValue* obj) {
  if (args.get_flag("fast")) obj->set("fast", true);
  if (args.set_on_cli("budget"))
    obj->set("budget", args.get_u64("budget", 0));
  if (args.set_on_cli("timeslice"))
    obj->set("timeslice", args.get_u64("timeslice", 0));
  if (args.set_on_cli("stats-level"))
    obj->set("stats", args.get_string("stats-level", ""));
  if (args.set_on_cli("machine"))
    obj->set("machine", args.get_string("machine", ""));
  if (args.set_on_cli("clusters"))
    obj->set("clusters", args.get_u64("clusters", 0));
  if (args.set_on_cli("issue")) obj->set("issue", args.get_u64("issue", 0));
}

template <typename Range>
JsonValue string_array(const Range& items) {
  JsonValue a = JsonValue::array();
  for (const std::string& s : items) a.push_back(s);
  return a;
}

/// Builds the single request line of a one-shot invocation; empty when no
/// action flag was given.
std::string build_one_shot(const ArgParser& args) {
  JsonValue req = JsonValue::object();
  req.set("id", "cli-0");
  if (args.get_flag("ping")) {
    req.set("type", "ping");
  } else if (args.get_flag("stats")) {
    req.set("type", "stats");
  } else if (args.get_flag("shutdown")) {
    req.set("type", "shutdown");
  } else if (args.set_on_cli("experiment")) {
    req.set("type", "experiment");
    req.set("experiment", args.get_string("experiment", ""));
    JsonValue params = JsonValue::object();
    fill_sim_fields(args, &params);
    if (args.set_on_cli("schemes"))
      params.set("schemes",
                 string_array(split(args.get_string("schemes", ""), ',')));
    if (args.set_on_cli("workloads"))
      params.set("workloads",
                 string_array(split(args.get_string("workloads", ""), ',')));
    if (!params.members().empty()) req.set("params", std::move(params));
  } else if (args.set_on_cli("scheme")) {
    req.set("type", "run");
    req.set("scheme", args.get_string("scheme", ""));
    req.set("benchmarks",
            string_array(split(args.get_string("benchmarks", ""), ',')));
    JsonValue config = JsonValue::object();
    fill_sim_fields(args, &config);
    if (!config.members().empty()) req.set("config", std::move(config));
  } else {
    return {};
  }
  return req.dump(-1);
}

/// Prints one response. --format=json unwraps ok responses to the bare
/// "result" pretty-printed exactly as `cvmt run --format=json` prints its
/// document (indent 2, trailing newline) — the byte-identity bridge.
/// Returns false for error responses.
bool print_response(const std::string& line, const std::string& format) {
  if (format != "json") {
    std::fputs(line.c_str(), stdout);
    std::fputc('\n', stdout);
    JsonValue doc;
    try {
      doc = JsonValue::parse(line);
    } catch (const CheckError&) {
      return false;
    }
    const JsonValue* ok = doc.find("ok");
    return ok != nullptr && ok->kind() == JsonValue::Kind::kBool &&
           ok->as_bool();
  }
  JsonValue doc;
  try {
    doc = JsonValue::parse(line);
  } catch (const CheckError& e) {
    std::fprintf(stderr, "cvmt client: unparseable response: %s\n",
                 e.what());
    return false;
  }
  const JsonValue* ok = doc.find("ok");
  if (ok == nullptr || ok->kind() != JsonValue::Kind::kBool ||
      !ok->as_bool()) {
    std::fprintf(stderr, "%s\n", line.c_str());
    return false;
  }
  const std::string text = doc.get("result").dump(2);
  std::fputs(text.c_str(), stdout);
  std::fputc('\n', stdout);
  return true;
}

// ---- load generator ------------------------------------------------------

struct LoadTotals {
  std::uint64_t sent = 0;
  std::uint64_t answered = 0;
  std::uint64_t ok = 0;
  std::uint64_t errors = 0;
  std::uint64_t rejected_overload = 0;
  std::uint64_t rejected_shutdown = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t unknown_ids = 0;
  std::vector<std::uint64_t> latencies_us;
};

/// One load connection: sends its slice of requests with up to `window`
/// in flight, matching responses by id. Stops sending (but keeps
/// reading) when the connection dies mid-stream — under a server drain
/// that is the expected outcome for the tail of the stream.
void load_connection(std::uint16_t port, const std::string& host,
                     std::size_t conn_index,
                     const std::vector<std::string>& requests,
                     std::size_t window, LoadTotals* totals,
                     std::mutex* totals_mu) {
  LoadTotals local;
  std::map<std::string, SteadyClock::time_point> in_flight;
  try {
    LineConn conn(connect_local(port, host));
    std::size_t next = 0;
    bool send_ok = true;
    while (!in_flight.empty() || (send_ok && next < requests.size())) {
      while (send_ok && next < requests.size() &&
             in_flight.size() < window) {
        const std::string id =
            "c" + std::to_string(conn_index) + "-" + std::to_string(next);
        std::string line = requests[next];
        // Requests come in with the placeholder id "@"; stamp the real
        // one (cheap textual splice keeps request building allocation-
        // free in the hot loop).
        const std::size_t at = line.find("\"@\"");
        CVMT_CHECK_MSG(at != std::string::npos,
                       "load request lost its id placeholder");
        line.replace(at, 3, "\"" + id + "\"");
        if (!conn.send_line(std::move(line))) {
          send_ok = false;
          break;
        }
        in_flight.emplace(id, SteadyClock::now());
        ++local.sent;
        ++next;
      }
      if (in_flight.empty()) break;
      std::string response;
      if (!conn.recv_line(&response)) break;  // server closed: drain tail
      JsonValue doc;
      try {
        doc = JsonValue::parse(response);
      } catch (const CheckError&) {
        ++local.unknown_ids;
        continue;
      }
      const JsonValue* id = doc.find("id");
      if (id == nullptr || id->kind() != JsonValue::Kind::kString) {
        ++local.unknown_ids;
        continue;
      }
      const auto it = in_flight.find(id->as_string());
      if (it == in_flight.end()) {
        // Either never sent (server bug) or already answered (duplicate).
        ++local.duplicates;
        continue;
      }
      local.latencies_us.push_back(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              SteadyClock::now() - it->second)
              .count()));
      in_flight.erase(it);
      ++local.answered;
      const JsonValue* ok = doc.find("ok");
      if (ok != nullptr && ok->kind() == JsonValue::Kind::kBool &&
          ok->as_bool()) {
        ++local.ok;
      } else {
        ++local.errors;
        if (const JsonValue* err = doc.find("error")) {
          const JsonValue* code = err->find("code");
          const std::string name =
              code != nullptr && code->kind() == JsonValue::Kind::kString
                  ? code->as_string()
                  : "";
          if (name == "overloaded") ++local.rejected_overload;
          if (name == "shutting_down") ++local.rejected_shutdown;
        }
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cvmt client: connection %zu: %s\n", conn_index,
                 e.what());
  }
  std::lock_guard<std::mutex> lock(*totals_mu);
  totals->sent += local.sent;
  totals->answered += local.answered;
  totals->ok += local.ok;
  totals->errors += local.errors;
  totals->rejected_overload += local.rejected_overload;
  totals->rejected_shutdown += local.rejected_shutdown;
  totals->duplicates += local.duplicates;
  totals->unknown_ids += local.unknown_ids;
  totals->latencies_us.insert(totals->latencies_us.end(),
                              local.latencies_us.begin(),
                              local.latencies_us.end());
}

std::uint64_t percentile_us(std::vector<std::uint64_t>& sorted, double q) {
  if (sorted.empty()) return 0;
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

/// Builds the request mix for load mode: `load` requests cycling through
/// the `mix` types, ids left as the "@" placeholder for the connection
/// threads to stamp. Run requests rotate scheme x workload so the load
/// exercises the artifact cache across many keys, not one hot entry.
std::vector<std::string> build_load_requests(const ArgParser& args,
                                             std::uint64_t load,
                                             const std::string& mix_spec) {
  static const std::array<std::string_view, 4> kSchemes = {
      "2SC3", "3SCC", "C4", "2CS"};
  const std::vector<std::string> mix = split(mix_spec, ',');
  for (const std::string& m : mix)
    CVMT_CHECK_MSG(m == "run" || m == "experiment" || m == "ping" ||
                       m == "stats",
                   "unknown --mix entry \"" + m + "\"");
  CVMT_CHECK_MSG(!mix.empty(), "--mix must not be empty");
  const std::vector<Workload>& workloads = table2_workloads();

  std::vector<std::string> requests;
  requests.reserve(load);
  for (std::uint64_t i = 0; i < load; ++i) {
    const std::string& kind = mix[i % mix.size()];
    JsonValue req = JsonValue::object();
    req.set("id", "@");
    if (kind == "run") {
      req.set("type", "run");
      req.set("scheme", kSchemes[i % kSchemes.size()]);
      const Workload& w = workloads[i % workloads.size()];
      req.set("benchmarks", string_array(w.benchmarks));
      JsonValue config = JsonValue::object();
      config.set("budget", args.get_u64("budget", 2000));
      if (args.set_on_cli("timeslice"))
        config.set("timeslice", args.get_u64("timeslice", 0));
      req.set("config", std::move(config));
    } else if (kind == "experiment") {
      req.set("type", "experiment");
      req.set("experiment", args.get_string("experiment", "fig9"));
      JsonValue params = JsonValue::object();
      params.set("fast", true);
      req.set("params", std::move(params));
    } else {
      req.set("type", kind);
    }
    requests.push_back(req.dump(-1));
  }
  return requests;
}

int run_load(const ArgParser& args, std::uint16_t port,
             const std::string& host) {
  const std::uint64_t load = args.get_u64("load", 0);
  const auto connections = static_cast<std::size_t>(
      std::max<std::uint64_t>(1, args.get_u64("connections", 4)));
  const auto window = static_cast<std::size_t>(
      std::max<std::uint64_t>(1, args.get_u64("pipeline", 16)));
  const std::vector<std::string> requests =
      build_load_requests(args, load, args.get_string("mix", "run"));

  // Round-robin the requests over the connections so every connection
  // sees the full type mix.
  std::vector<std::vector<std::string>> per_conn(connections);
  for (std::size_t i = 0; i < requests.size(); ++i)
    per_conn[i % connections].push_back(requests[i]);

  LoadTotals totals;
  std::mutex totals_mu;
  const SteadyClock::time_point t0 = SteadyClock::now();
  std::vector<std::thread> threads;
  threads.reserve(connections);
  for (std::size_t c = 0; c < connections; ++c)
    threads.emplace_back(load_connection, port, host, c,
                         std::cref(per_conn[c]), window, &totals,
                         &totals_mu);
  for (std::thread& t : threads) t.join();
  const double wall_s =
      std::chrono::duration<double>(SteadyClock::now() - t0).count();

  std::sort(totals.latencies_us.begin(), totals.latencies_us.end());
  const std::uint64_t unanswered = totals.sent - totals.answered;
  std::printf(
      "sent=%llu answered=%llu ok=%llu errors=%llu overloaded=%llu "
      "shutting_down=%llu unanswered=%llu duplicates=%llu "
      "unknown_ids=%llu\n",
      static_cast<unsigned long long>(totals.sent),
      static_cast<unsigned long long>(totals.answered),
      static_cast<unsigned long long>(totals.ok),
      static_cast<unsigned long long>(totals.errors),
      static_cast<unsigned long long>(totals.rejected_overload),
      static_cast<unsigned long long>(totals.rejected_shutdown),
      static_cast<unsigned long long>(unanswered),
      static_cast<unsigned long long>(totals.duplicates),
      static_cast<unsigned long long>(totals.unknown_ids));
  std::printf(
      "wall_s=%.3f req_per_s=%.1f p50_us=%llu p90_us=%llu p99_us=%llu\n",
      wall_s,
      wall_s > 0 ? static_cast<double>(totals.answered) / wall_s : 0.0,
      static_cast<unsigned long long>(
          percentile_us(totals.latencies_us, 0.50)),
      static_cast<unsigned long long>(
          percentile_us(totals.latencies_us, 0.90)),
      static_cast<unsigned long long>(
          percentile_us(totals.latencies_us, 0.99)));

  // Accounting: every response matched exactly one outstanding request.
  // --allow-shutdown additionally tolerates an unanswered tail (requests
  // that were in flight when a drain shut the connections down — by the
  // drain contract those were never admitted).
  if (totals.duplicates != 0 || totals.unknown_ids != 0) return 1;
  if (!args.get_flag("allow-shutdown") && unanswered != 0) return 1;
  return 0;
}

}  // namespace

int client_main(int argc, const char* const* argv) {
  ArgParser args("cvmt client",
                 "Scripted client for `cvmt serve`: one-shot requests, "
                 "raw request lines (positionals, pipelined), and a "
                 "pipelined load generator with latency percentiles and "
                 "request-id accounting.");
  args.add_u64("port", "N", "server port on --host");
  args.add_string("host", "HOST", "server host (default 127.0.0.1)");
  args.add_string("format", "FMT",
                  "response format: line (raw response) or json (bare "
                  "result, pretty-printed like `cvmt run --format=json`)",
                  {"line", "json"});

  args.add_flag("ping", "liveness probe");
  args.add_flag("stats", "server metrics snapshot");
  args.add_flag("shutdown", "ask the server to drain and exit");
  args.add_string("experiment", "ID", "run a registered experiment");
  args.add_string("scheme", "NAME", "run one simulation of this scheme");
  args.add_string("benchmarks", "A,B,...",
                  "benchmarks of the run (one per thread)");

  args.add_flag("fast", "fast preset (short budget/timeslice)");
  args.add_u64("budget", "N", "per-thread instruction budget");
  args.add_u64("timeslice", "N", "OS timeslice in cycles");
  args.add_string("stats-level", "L", "stats level", {"full", "fast"});
  args.add_string("machine", "NAME",
                  "built-in machine name (serve reads no machine files)");
  args.add_u64("clusters", "N", "cluster count (vs --machine)");
  args.add_u64("issue", "N", "per-cluster issue width (vs --machine)");
  args.add_string("schemes", "A,B,...", "experiment scheme filter");
  args.add_string("workloads", "A,B,...", "experiment workload filter");

  args.add_u64("load", "N", "load mode: send N mixed requests");
  args.add_string("mix", "T1,T2,...",
                  "load mix of run/experiment/ping/stats (default run)");
  args.add_u64("connections", "C", "load connections (default 4)");
  args.add_u64("pipeline", "W",
               "max in-flight requests per connection (default 16)");
  args.add_flag("allow-shutdown",
                "load accounting tolerates an unanswered tail cut off by "
                "a server drain");
  args.add_positional("request",
                      "raw request line(s), sent pipelined in order");
  switch (args.parse(argc, argv)) {
    case ArgParser::Outcome::kHelp: return 0;
    case ArgParser::Outcome::kError: return 2;
    case ArgParser::Outcome::kOk: break;
  }

  const std::uint64_t port64 = args.get_u64("port", 0);
  if (port64 == 0 || port64 > 65535) {
    std::fprintf(stderr, "cvmt client: --port is required\n");
    return 2;
  }
  const auto port = static_cast<std::uint16_t>(port64);
  const std::string host = args.get_string("host", "127.0.0.1");
  const std::string format = args.get_string("format", "line");

  try {
    if (args.get_u64("load", 0) > 0) return run_load(args, port, host);

    std::vector<std::string> lines;
    const std::string one_shot = build_one_shot(args);
    if (!one_shot.empty()) lines.push_back(one_shot);
    for (std::size_t i = 0; i < args.num_positionals(); ++i)
      lines.push_back(args.positional(i));
    if (lines.empty()) {
      std::fprintf(stderr,
                   "cvmt client: nothing to send (try --ping, or see "
                   "--help)\n");
      return 2;
    }

    LineConn conn(connect_local(port, host));
    for (const std::string& line : lines)
      if (!conn.send_line(line)) {
        std::fprintf(stderr, "cvmt client: send failed\n");
        return 1;
      }
    bool all_ok = true;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      std::string response;
      if (!conn.recv_line(&response)) {
        std::fprintf(stderr,
                     "cvmt client: server closed after %zu of %zu "
                     "responses\n",
                     i, lines.size());
        return 1;
      }
      all_ok = print_response(response, format) && all_ok;
    }
    return all_ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cvmt client: %s\n", e.what());
    return 1;
  }
}

}  // namespace cvmt
