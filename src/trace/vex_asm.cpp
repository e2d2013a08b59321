#include "trace/vex_asm.hpp"

#include <cinttypes>
#include <cstdio>
#include <sstream>

#include "support/string_util.hpp"

namespace cvmt {
namespace {

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%" PRIx64, v);
  return buf;
}

/// Strict numeric field parsing. The old bare strtoull/strtod calls
/// passed a null end pointer, so any garbage field silently parsed as 0
/// (and "-48" wrapped modulo 2^64); every number in a program file now
/// validates the full token and fails with the line number. Base 0: code
/// and hot addresses are written 0x-prefixed.
std::uint64_t parse_u64_or_die(std::string_view tok, int line_no,
                               std::string_view what) {
  std::uint64_t v = 0;
  CVMT_CHECK_MSG(parse_u64_token(tok, v, 0),
                 "line " + std::to_string(line_no) + ": " +
                     std::string(what) + " is not an unsigned number: '" +
                     std::string(tok) + "'");
  return v;
}

double parse_double_or_die(std::string_view tok, int line_no,
                           std::string_view what) {
  double v = 0.0;
  CVMT_CHECK_MSG(parse_double_token(tok, v),
                 "line " + std::to_string(line_no) + ": " +
                     std::string(what) +
                     " is not a non-negative number: '" +
                     std::string(tok) + "'");
  return v;
}

OpKind kind_from_token(std::string_view tok, int line_no) {
  if (tok == "alu") return OpKind::kAlu;
  if (tok == "mpy") return OpKind::kMul;
  if (tok == "ld") return OpKind::kLoad;
  if (tok == "st") return OpKind::kStore;
  if (tok == "br") return OpKind::kBranch;
  CVMT_CHECK_MSG(false, "line " + std::to_string(line_no) +
                            ": unknown op kind '" + std::string(tok) + "'");
  __builtin_unreachable();
}

/// Minimal tokenizer state over one line.
class LineParser {
 public:
  LineParser(std::string_view line, int line_no)
      : line_(line), line_no_(line_no) {}

  /// key=value field, e.g. trips=48 or hot=0x20001040+4096.
  [[nodiscard]] std::string field(std::string_view key) {
    const std::string pat = std::string(key) + "=";
    const std::size_t pos = line_.find(pat);
    CVMT_CHECK_MSG(pos != std::string_view::npos,
                   "line " + std::to_string(line_no_) + ": missing '" +
                       std::string(key) + "='");
    std::size_t end = pos + pat.size();
    while (end < line_.size() && line_[end] != ' ') ++end;
    return std::string(line_.substr(pos + pat.size(),
                                    end - pos - pat.size()));
  }

  [[nodiscard]] std::uint64_t field_u64(std::string_view key) {
    return parse_u64_or_die(field(key), line_no_,
                            std::string(key) + "=");
  }
  [[nodiscard]] double field_double(std::string_view key) {
    return parse_double_or_die(field(key), line_no_,
                               std::string(key) + "=");
  }

 private:
  std::string_view line_;
  int line_no_;
};

Instruction parse_instruction(std::string_view body, int line_no) {
  Instruction instr;
  for (std::string_view part : split(body, ';')) {
    part = trim(part);
    if (part.empty()) continue;
    // "c<cluster>.<slot> <kind>"
    CVMT_CHECK_MSG(part.size() >= 5 && part[0] == 'c',
                   "line " + std::to_string(line_no) +
                       ": malformed operation '" + std::string(part) + "'");
    const std::size_t dot = part.find('.');
    const std::size_t space = part.find(' ', dot);
    CVMT_CHECK_MSG(dot != std::string_view::npos &&
                       space != std::string_view::npos,
                   "line " + std::to_string(line_no) +
                       ": malformed operation '" + std::string(part) + "'");
    Operation op;
    std::uint64_t cluster = 0;
    std::uint64_t slot = 0;
    CVMT_CHECK_MSG(
        parse_u64_token(part.substr(1, dot - 1), cluster, 10) &&
            parse_u64_token(part.substr(dot + 1, space - dot - 1), slot,
                            10) &&
            cluster <= 0xff && slot <= 0xff,
        "line " + std::to_string(line_no) + ": malformed operation '" +
            std::string(part) + "'");
    op.cluster = static_cast<std::uint8_t>(cluster);
    op.slot = static_cast<std::uint8_t>(slot);
    op.kind = kind_from_token(trim(part.substr(space + 1)), line_no);
    instr.add(op);
  }
  return instr;
}

/// The `.machine` directive's issue= field: the one width of a uniform
/// machine, else a comma-separated per-cluster list (e.g. "4,4,2,1").
std::string issue_field_of(const MachineConfig& m) {
  if (m.uniform()) return std::to_string(m.cluster_issue(0));
  std::string out;
  for (int c = 0; c < m.num_clusters; ++c) {
    if (c) out += ',';
    out += std::to_string(m.cluster_issue(c));
  }
  return out;
}

}  // namespace

std::string dump_program(const SyntheticProgram& program) {
  const BenchmarkProfile& p = program.profile();
  const MachineConfig& m = program.machine();
  std::ostringstream os;
  os << ".program " << p.name << "\n";
  os << ".machine clusters=" << m.num_clusters << " issue="
     << issue_field_of(m) << "\n";
  os << ".stride " << p.hot_stride << "\n";
  os << ".codebytes " << p.code_bytes_per_instr << "\n";
  os << ".midtaken " << format_fixed(p.mid_branch_taken, 4) << "\n";
  for (const auto& loop : program.loops()) {
    os << ".loop trips=" << format_fixed(loop.mean_trips, 3)
       << " miss=" << format_fixed(loop.miss_frac, 6)
       << " code=" << hex(loop.code_base) << " hot=" << hex(loop.hot_base)
       << "+" << loop.hot_window << " cold=" << hex(loop.cold_base) << "\n";
    for (std::size_t k = 0; k < loop.steps.size(); ++k) {
      const Instruction instr = loop.instruction(k);
      os << "{ ";
      for (std::size_t i = 0; i < instr.op_count(); ++i) {
        if (i) os << " ; ";
        const Operation& op = instr.op(i);
        os << 'c' << static_cast<int>(op.cluster) << '.'
           << static_cast<int>(op.slot) << ' ' << to_string(op.kind);
      }
      os << (instr.empty() ? "}" : " }") << "\n";
    }
    os << ".endloop\n";
  }
  return os.str();
}

std::shared_ptr<const SyntheticProgram> parse_program(
    std::string_view text, const MachineConfig& machine) {
  BenchmarkProfile profile;
  profile.name = "(unnamed)";
  profile.target_ipc_real = 1.0;
  profile.target_ipc_perfect = 1.0;

  std::vector<SyntheticProgram::LoopSource> loops;
  SyntheticProgram::LoopSource current;
  bool in_loop = false;
  bool machine_seen = false;
  std::uint64_t next_pc = 0;

  int line_no = 0;
  for (std::string raw : split(text, '\n')) {
    ++line_no;
    if (const std::size_t hash = raw.find('#'); hash != std::string::npos)
      raw.resize(hash);
    const std::string_view line = trim(raw);
    if (line.empty()) continue;
    LineParser lp(line, line_no);

    if (line.rfind(".program", 0) == 0) {
      profile.name = std::string(trim(line.substr(8)));
    } else if (line.rfind(".machine", 0) == 0) {
      CVMT_CHECK_MSG(static_cast<int>(lp.field_u64("clusters")) ==
                             machine.num_clusters &&
                         lp.field("issue") == issue_field_of(machine),
                     "line " + std::to_string(line_no) +
                         ": .machine does not match the target machine");
      machine_seen = true;
    } else if (line.rfind(".stride", 0) == 0) {
      profile.hot_stride =
          parse_u64_or_die(trim(line.substr(7)), line_no, ".stride");
    } else if (line.rfind(".codebytes", 0) == 0) {
      profile.code_bytes_per_instr =
          parse_u64_or_die(trim(line.substr(10)), line_no, ".codebytes");
    } else if (line.rfind(".midtaken", 0) == 0) {
      profile.mid_branch_taken =
          parse_double_or_die(trim(line.substr(9)), line_no, ".midtaken");
    } else if (line.rfind(".loop", 0) == 0) {
      CVMT_CHECK_MSG(!in_loop, "line " + std::to_string(line_no) +
                                   ": nested .loop");
      current = SyntheticProgram::LoopSource{};
      SyntheticProgram::Loop& loop = current.loop;
      loop.mean_trips = lp.field_double("trips");
      loop.miss_frac = lp.field_double("miss");
      loop.code_base = lp.field_u64("code");
      const std::string hot = lp.field("hot");
      const std::size_t plus = hot.find('+');
      CVMT_CHECK_MSG(plus != std::string::npos,
                     "line " + std::to_string(line_no) +
                         ": hot= needs base+window");
      loop.hot_base = parse_u64_or_die(
          std::string_view(hot).substr(0, plus), line_no, "hot= base");
      loop.hot_window = parse_u64_or_die(
          std::string_view(hot).substr(plus + 1), line_no, "hot= window");
      loop.cold_base = lp.field_u64("cold");
      next_pc = loop.code_base;
      in_loop = true;
    } else if (line == ".endloop") {
      CVMT_CHECK_MSG(in_loop, "line " + std::to_string(line_no) +
                                  ": .endloop outside a loop");
      loops.push_back(std::move(current));
      in_loop = false;
    } else if (line.front() == '{') {
      CVMT_CHECK_MSG(in_loop, "line " + std::to_string(line_no) +
                                  ": instruction outside a loop");
      const std::size_t close = line.rfind('}');
      CVMT_CHECK_MSG(close != std::string_view::npos,
                     "line " + std::to_string(line_no) + ": missing '}'");
      Instruction instr =
          parse_instruction(line.substr(1, close - 1), line_no);
      instr.set_pc(next_pc);
      next_pc += profile.code_bytes_per_instr;
      current.body.push_back(std::move(instr));
    } else {
      CVMT_CHECK_MSG(false, "line " + std::to_string(line_no) +
                                ": unrecognised directive '" +
                                std::string(line) + "'");
    }
  }
  CVMT_CHECK_MSG(!in_loop, "unterminated .loop at end of input");
  CVMT_CHECK_MSG(machine_seen, "missing .machine directive");
  profile.num_loops = static_cast<int>(loops.size());
  return std::make_shared<const SyntheticProgram>(profile, machine,
                                                  std::move(loops));
}

}  // namespace cvmt
