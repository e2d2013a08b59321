#include "store/result_store.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <sstream>

#include "core/scheme.hpp"
#include "sim/session.hpp"
#include "support/check.hpp"
#include "support/string_util.hpp"

namespace cvmt {

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

ShardSpec parse_shard_spec(const std::string& spec) {
  const std::size_t slash = spec.find('/');
  std::uint64_t index = 0;
  std::uint64_t count = 0;
  const bool ok =
      slash != std::string::npos &&
      parse_u64_token(spec.substr(0, slash), index) &&
      parse_u64_token(spec.substr(slash + 1), count) && count >= 1 &&
      count <= kMaxShards && index < count;
  CVMT_REQUIRE(ok, "--shard must be k/n with 0 <= k < n <= " +
                       std::to_string(kMaxShards) + ", got '" +
                       excerpt(spec) + "'");
  return ShardSpec{static_cast<unsigned>(index),
                   static_cast<unsigned>(count)};
}

namespace {

void append_u64(std::string& key, std::uint64_t v) {
  key += std::to_string(v);
  key += ',';
}

void append_cache(std::string& key, const CacheConfig& c) {
  append_u64(key, c.size_bytes);
  append_u64(key, c.line_bytes);
  append_u64(key, c.ways);
  append_u64(key, static_cast<std::uint64_t>(c.miss_penalty));
}

MergeKind merge_kind_from_char(char c) {
  switch (c) {
    case 'S': return MergeKind::kSmt;
    case 'C': return MergeKind::kCsmt;
    case 'I': return MergeKind::kSelect;
    default:
      CVMT_CHECK_MSG(false, std::string("store: unknown merge kind '") +
                                c + "'");
      __builtin_unreachable();
  }
}

/// Everything a point key holds beyond the scheme and its machine: the
/// workload and the full run configuration. Shared by point_key and
/// decision_key, so a knob added here reaches both.
void append_run_inputs(std::string& key, const BatchJob& job) {
  const SimConfig& c = job.sim;
  key += "|W:";
  for (const std::string& b : job.benchmarks) {
    key += b;
    key += ',';
  }
  // The full run configuration beyond the machine (which the scheme key
  // carries): any knob that can change a result must be here, so two
  // jobs share a record only when the simulator guarantees bit-identical
  // outcomes. The worker count is deliberately absent — results are
  // bit-identical for any value (the batch runner's contract).
  key += "|C:";
  append_cache(key, c.mem.icache);
  append_cache(key, c.mem.dcache);
  append_u64(key, static_cast<std::uint64_t>(c.mem.sharing));
  append_u64(key, c.mem.perfect ? 1 : 0);
  append_u64(key, c.mem.has_l2 ? 1 : 0);
  append_cache(key, c.mem.l2);
  append_u64(key, static_cast<std::uint64_t>(c.mem.dcache_banks));
  append_u64(key,
             static_cast<std::uint64_t>(c.mem.bank_conflict_penalty));
  append_u64(key, static_cast<std::uint64_t>(c.priority));
  append_u64(key, static_cast<std::uint64_t>(c.miss_policy));
  append_u64(key, c.timeslice_cycles);
  append_u64(key, c.instruction_budget);
  append_u64(key, c.max_cycles);
  append_u64(key, c.os_seed);
  append_u64(key, c.stream_seed_base);
  append_u64(key, static_cast<std::uint64_t>(c.switch_policy));
  append_u64(key, static_cast<std::uint64_t>(c.stats));
  append_u64(key, static_cast<std::uint64_t>(c.eval_mode));
  append_u64(key, c.stall_fast_forward ? 1 : 0);
}

}  // namespace

std::string point_key(const BatchJob& job) {
  std::string key = "R1|";
  key += scheme_key(job.scheme, job.sim.machine);
  append_run_inputs(key, job);
  return key;
}

std::string decision_key(const BatchJob& job, std::string_view signature) {
  std::string key = "D1|";
  key += signature;
  key += '@';
  append_machine_key(key, job.sim.machine);
  append_run_inputs(key, job);
  return key;
}

unsigned shard_of(std::string_view key, unsigned count) {
  CVMT_CHECK(count >= 1);
  return static_cast<unsigned>(fnv1a64(key) %
                               static_cast<std::uint64_t>(count));
}

// --- SimResult <-> JSON ---------------------------------------------------

namespace {

JsonValue ratio_to_json(const RatioCounter& r) {
  JsonValue v = JsonValue::object();
  v.reserve(2);
  v.set("hits", r.hits);
  v.set("total", r.total);
  return v;
}

RatioCounter ratio_from_json(const JsonValue& v) {
  RatioCounter r;
  r.hits = static_cast<std::uint64_t>(v.get("hits").as_int());
  r.total = static_cast<std::uint64_t>(v.get("total").as_int());
  return r;
}

std::uint64_t u64_of(const JsonValue& v, std::string_view key) {
  return static_cast<std::uint64_t>(v.get(key).as_int());
}

}  // namespace

JsonValue sim_result_to_json(const SimResult& r) {
  JsonValue out = JsonValue::object();
  out.reserve(13);
  out.set("scheme", r.scheme);
  out.set("cycles", r.cycles);
  out.set("total_ops", r.total_ops);
  out.set("total_instructions", r.total_instructions);
  out.set("idle_cycles", r.idle_cycles);
  out.set("ipc", r.ipc);
  JsonValue threads = JsonValue::array();
  threads.reserve(r.threads.size());
  for (const ThreadResult& t : r.threads) {
    JsonValue tv = JsonValue::object();
    tv.reserve(4);
    tv.set("benchmark", t.benchmark);
    // The record format keeps the two headline counters beside the stats
    // they copy; the decoder insists that the copies agree.
    tv.set("instructions", t.stats.instructions);
    tv.set("ops", t.stats.ops);
    JsonValue sv = JsonValue::object();
    sv.reserve(8);
    sv.set("instructions", t.stats.instructions);
    sv.set("bubbles", t.stats.bubbles);
    sv.set("ops", t.stats.ops);
    sv.set("taken_branches", t.stats.taken_branches);
    sv.set("dcache_stall_cycles", t.stats.dcache_stall_cycles);
    sv.set("icache_stall_cycles", t.stats.icache_stall_cycles);
    sv.set("branch_stall_cycles", t.stats.branch_stall_cycles);
    sv.set("bank_conflict_cycles", t.stats.bank_conflict_cycles);
    tv.set("stats", std::move(sv));
    threads.push_back(std::move(tv));
  }
  out.set("threads", std::move(threads));
  out.set("icache", ratio_to_json(r.icache));
  out.set("dcache", ratio_to_json(r.dcache));
  out.set("l2", ratio_to_json(r.l2));
  JsonValue hist = JsonValue::object();
  hist.reserve(3);
  JsonValue buckets = JsonValue::array();
  buckets.reserve(r.issued_per_cycle.num_buckets());
  for (std::size_t i = 0; i < r.issued_per_cycle.num_buckets(); ++i)
    buckets.push_back(r.issued_per_cycle.bucket(i));
  hist.set("buckets", std::move(buckets));
  hist.set("total", r.issued_per_cycle.total());
  hist.set("weighted_sum", r.issued_per_cycle.weighted_sum());
  out.set("issued_per_cycle", std::move(hist));
  JsonValue nodes = JsonValue::array();
  nodes.reserve(r.merge_nodes.size());
  for (const MergeNodeStats& n : r.merge_nodes) {
    JsonValue nv = JsonValue::object();
    nv.reserve(4);
    nv.set("label", n.label);
    nv.set("kind", std::string(1, to_char(n.kind)));
    nv.set("attempts", n.attempts);
    nv.set("rejects", n.rejects);
    nodes.push_back(std::move(nv));
  }
  out.set("merge_nodes", std::move(nodes));
  JsonValue os = JsonValue::object();
  os.reserve(2);
  os.set("context_switches", r.os.context_switches);
  os.set("timeslices", r.os.timeslices);
  out.set("os", std::move(os));
  return out;
}

SimResult sim_result_from_json(const JsonValue& v) {
  SimResult r;
  r.scheme = v.get("scheme").as_string();
  r.cycles = u64_of(v, "cycles");
  r.total_ops = u64_of(v, "total_ops");
  r.total_instructions = u64_of(v, "total_instructions");
  r.idle_cycles = u64_of(v, "idle_cycles");
  r.ipc = v.get("ipc").as_double();
  const JsonValue& threads = v.get("threads");
  r.threads.reserve(threads.size());
  for (std::size_t i = 0; i < threads.size(); ++i) {
    const JsonValue& tv = threads.at(i);
    ThreadResult t;
    t.benchmark = tv.get("benchmark").as_string();
    const std::uint64_t instructions = u64_of(tv, "instructions");
    const std::uint64_t ops = u64_of(tv, "ops");
    const JsonValue& sv = tv.get("stats");
    t.stats.instructions = u64_of(sv, "instructions");
    t.stats.bubbles = u64_of(sv, "bubbles");
    t.stats.ops = u64_of(sv, "ops");
    t.stats.taken_branches = u64_of(sv, "taken_branches");
    t.stats.dcache_stall_cycles = u64_of(sv, "dcache_stall_cycles");
    t.stats.icache_stall_cycles = u64_of(sv, "icache_stall_cycles");
    t.stats.branch_stall_cycles = u64_of(sv, "branch_stall_cycles");
    t.stats.bank_conflict_cycles = u64_of(sv, "bank_conflict_cycles");
    CVMT_CHECK_MSG(instructions == t.stats.instructions && ops == t.stats.ops,
                   "store: thread " + std::to_string(i) +
                       " instructions/ops disagree with its stats");
    r.threads.push_back(std::move(t));
  }
  r.icache = ratio_from_json(v.get("icache"));
  r.dcache = ratio_from_json(v.get("dcache"));
  r.l2 = ratio_from_json(v.get("l2"));
  const JsonValue& hist = v.get("issued_per_cycle");
  const JsonValue& buckets = hist.get("buckets");
  std::vector<std::uint64_t> counts;
  counts.reserve(buckets.size());
  for (std::size_t i = 0; i < buckets.size(); ++i)
    counts.push_back(static_cast<std::uint64_t>(buckets.at(i).as_int()));
  r.issued_per_cycle = Histogram::restored(
      std::move(counts), u64_of(hist, "total"),
      u64_of(hist, "weighted_sum"));
  const JsonValue& nodes = v.get("merge_nodes");
  r.merge_nodes.reserve(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const JsonValue& nv = nodes.at(i);
    MergeNodeStats n;
    n.label = nv.get("label").as_string();
    const std::string& kind = nv.get("kind").as_string();
    CVMT_CHECK_MSG(kind.size() == 1,
                   "store: malformed merge-node kind '" + kind + "'");
    n.kind = merge_kind_from_char(kind[0]);
    n.attempts = u64_of(nv, "attempts");
    n.rejects = u64_of(nv, "rejects");
    r.merge_nodes.push_back(std::move(n));
  }
  const JsonValue& os = v.get("os");
  r.os.context_switches = u64_of(os, "context_switches");
  r.os.timeslices = u64_of(os, "timeslices");
  return r;
}

// --- record codec ---------------------------------------------------------

namespace {

constexpr char kMagic[4] = {'C', 'V', 'S', '1'};
constexpr std::size_t kHeaderBytes = 4 + 4 + 8;
/// Framing sanity bound; a length beyond this is corruption, not data
/// (one grid point's JSON is a few KB).
constexpr std::uint64_t kMaxPayloadBytes = 1ULL << 30;

void put_le(char* p, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i)
    p[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
}

std::uint64_t get_le(const char* p, int bytes) {
  std::uint64_t v = 0;
  for (int i = 0; i < bytes; ++i)
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i]))
         << (8 * i);
  return v;
}

/// Appends one record to `out`: the payload is written in place after
/// room for the header, which is filled in once its length and checksum
/// are known.
void append_record(std::string& out, const std::string& key,
                   JsonValue result) {
  JsonValue payload = JsonValue::object();
  payload.reserve(2);
  payload.set("key", key);
  payload.set("result", std::move(result));
  const std::size_t start = out.size();
  out.append(kHeaderBytes, '\0');
  payload.dump_to(out, -1);
  const std::size_t len = out.size() - start - kHeaderBytes;
  char* header = out.data() + start;
  std::memcpy(header, kMagic, sizeof kMagic);
  put_le(header + 4, len, 4);
  put_le(header + 8,
         fnv1a64(std::string_view(header + kHeaderBytes, len)), 8);
}

}  // namespace

std::string encode_record(const std::string& key, JsonValue result) {
  std::string out;
  append_record(out, key, std::move(result));
  return out;
}

LogScan scan_log(const std::string& path, const RecordVisitor& on_record) {
  LogScan scan;
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in.is_open()) return scan;  // absent log = empty log
  const std::streamoff end = in.tellg();
  const std::uint64_t size = end > 0 ? static_cast<std::uint64_t>(end) : 0;
  in.seekg(0);

  char header[kHeaderBytes];
  std::string body;  // one record's payload, reused
  std::uint64_t off = 0;
  while (off < size) {
    if (size - off < kHeaderBytes || !in.read(header, kHeaderBytes) ||
        std::memcmp(header, kMagic, sizeof kMagic) != 0)
      break;
    const std::uint64_t len = get_le(header + 4, 4);
    const std::uint64_t sum = get_le(header + 8, 8);
    // Against the bytes left, before the buffer grows: a torn header
    // must not allocate what its length field claims.
    if (len > kMaxPayloadBytes || size - off - kHeaderBytes < len) break;
    body.resize(static_cast<std::size_t>(len));
    if (!in.read(body.data(), static_cast<std::streamsize>(len)) ||
        fnv1a64(body) != sum)
      break;
    JsonValue payload;
    const std::string* key = nullptr;
    const JsonValue* result = nullptr;
    try {
      payload = JsonValue::parse(body);
      key = &payload.get("key").as_string();
      result = &payload.get("result");
    } catch (const CheckError&) {
      break;  // checksummed but unparsable: treat as torn, same as above
    }
    if (on_record) on_record(*key, *result);
    ++scan.records;
    off += kHeaderBytes + len;
  }
  scan.good_bytes = off;
  scan.torn = off != size;
  return scan;
}

ShardLogWriter::ShardLogWriter(std::string path, const LogScan& scan)
    : path_(std::move(path)) {
  if (scan.torn) {
    std::fprintf(stderr,
                 "cvmt store: %s: discarding torn tail after %llu intact "
                 "bytes (crash recovery)\n",
                 path_.c_str(),
                 static_cast<unsigned long long>(scan.good_bytes));
    std::error_code ec;
    std::filesystem::resize_file(path_, scan.good_bytes, ec);
    CVMT_REQUIRE(!ec, "store: cannot truncate " + path_ + ": " +
                          ec.message());
  }
  out_.open(path_, std::ios::binary | std::ios::app);
  CVMT_REQUIRE(out_.is_open(),
               "store: cannot open shard log for append: " + path_);
}

void ShardLogWriter::append(const std::string& key, JsonValue result) {
  record_.clear();
  append_record(record_, key, std::move(result));
  out_.write(record_.data(),
             static_cast<std::streamsize>(record_.size()));
  out_.flush();
  CVMT_REQUIRE(out_.good(), "store: error appending to " + path_);
}

std::string shard_log_name(unsigned index, unsigned count) {
  return "shard-" + std::to_string(index) + "-of-" + std::to_string(count) +
         ".log";
}

std::string shard_log_path(const std::string& dir, unsigned index,
                           unsigned count) {
  return dir + "/" + shard_log_name(index, count);
}

std::vector<std::string> list_shard_logs(const std::string& dir) {
  std::vector<std::string> logs;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.rfind("shard-", 0) == 0 &&
        name.size() > 4 && name.compare(name.size() - 4, 4, ".log") == 0)
      logs.push_back(entry.path().string());
  }
  std::sort(logs.begin(), logs.end());
  return logs;
}

// --- manifest -------------------------------------------------------------

namespace {

std::string manifest_path(const std::string& dir) {
  return dir + "/manifest.json";
}

}  // namespace

void write_or_check_manifest(const std::string& dir,
                             const JsonValue& manifest) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  CVMT_REQUIRE(!ec, "store: cannot create the store directory " + dir +
                        ": " + ec.message());
  const std::string path = manifest_path(dir);
  const bool exists = std::filesystem::exists(path, ec);
  CVMT_REQUIRE(!ec, "store: cannot read " + path + ": " + ec.message());
  if (exists) {
    const JsonValue existing = read_manifest(dir);
    CVMT_REQUIRE(
        existing.dump(-1) == manifest.dump(-1),
        "store: " + path +
            " describes a different sweep than this command.\n  on disk: " +
            existing.dump(-1) + "\n  this run: " + manifest.dump(-1) +
            "\nA store directory binds one experiment with one parameter "
            "set; use a fresh --store directory.");
    return;
  }
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    manifest.write(out);
    out << '\n';
    out.flush();
    CVMT_REQUIRE(out.good(), "store: cannot write " + tmp);
  }
  std::filesystem::rename(tmp, path, ec);
  CVMT_REQUIRE(!ec, "store: cannot install " + path + ": " + ec.message());
}

JsonValue read_manifest(const std::string& dir) {
  std::ifstream in(manifest_path(dir), std::ios::binary);
  CVMT_REQUIRE(in.is_open(),
               "store: no manifest in '" + dir +
                   "' (is this a --store directory written by `cvmt run "
                   "--store`?)");
  std::ostringstream buf;
  buf << in.rdbuf();
  return JsonValue::parse(buf.str());
}

}  // namespace cvmt
