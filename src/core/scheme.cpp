#include "core/scheme.hpp"

#include <algorithm>
#include <cctype>
#include <sstream>

#include "support/check.hpp"
#include "support/string_util.hpp"

namespace cvmt {
namespace {

const char* kind_name(MergeKind k) {
  switch (k) {
    case MergeKind::kSmt: return "SMT";
    case MergeKind::kCsmt: return "CSMT";
    case MergeKind::kSelect: return "select";
  }
  return "?";
}

/// Collects leaf ports, checking structural rules along the way. Returns
/// the first defect found (empty string = subtree well formed).
std::string validate_node(const Scheme::Node& node, std::vector<int>& ports) {
  if (node.is_leaf()) {
    if (!node.children.empty())
      return "leaf (thread " + std::to_string(node.port) +
             ") must not have children";
    ports.push_back(node.port);
    return {};
  }
  if (node.children.empty())
    return std::string(kind_name(node.kind)) +
           " block has no inputs (empty merge arm)";
  if (node.children.size() == 1)
    return std::string(kind_name(node.kind)) +
           " block has a single input; merge blocks need at least two";
  if (node.parallel && node.kind != MergeKind::kCsmt)
    return "parallel implementation exists only for CSMT (paper: parallel "
           "SMT is prohibitively expensive; select blocks are single-level "
           "anyway)";
  for (const auto& child : node.children) {
    std::string err = validate_node(child, ports);
    if (!err.empty()) return err;
  }
  return {};
}

Scheme::Node leaf(int port) {
  Scheme::Node n;
  n.port = port;
  return n;
}

Scheme::Node block(MergeKind kind, std::vector<Scheme::Node> children,
                   bool parallel = false) {
  Scheme::Node n;
  n.kind = kind;
  n.parallel = parallel;
  n.children = std::move(children);
  return n;
}

struct Token {
  MergeKind kind;
  int width;  ///< 2 for a plain letter, k for a subscripted block like C3
};

/// Tokenizes the part after the level digit: "SC3" -> [S/2, C/3].
std::vector<Token> tokenize(std::string_view body) {
  std::vector<Token> tokens;
  std::size_t i = 0;
  while (i < body.size()) {
    const char c = body[i++];
    CVMT_REQUIRE(c == 'S' || c == 'C',
                 "scheme letter must be S or C: " + excerpt(body));
    MergeKind kind = c == 'S' ? MergeKind::kSmt : MergeKind::kCsmt;
    int width = 2;
    if (i < body.size() && std::isdigit(static_cast<unsigned char>(body[i]))) {
      width = body[i++] - '0';
      CVMT_REQUIRE(width >= 2, "block subscript must be >= 2");
      CVMT_REQUIRE(kind == MergeKind::kCsmt,
                   "parallel SMT blocks (S_k) are not supported");
    }
    tokens.push_back({kind, width});
  }
  return tokens;
}

/// The value of a decimal thread count or port, or -1 unless `digits` is
/// one to three digits. kMaxThreads is 16, so three digits are plenty and
/// keep the accumulation far from signed overflow; range checks come
/// later, on the value.
int small_decimal(std::string_view digits) {
  if (digits.empty() || digits.size() > 3) return -1;
  int n = 0;
  for (const char c : digits) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return -1;
    n = n * 10 + (c - '0');
  }
  return n;
}

/// Recursive-descent parser for the functional syntax
///   expr := ('S' | 'C' | 'CP') '(' expr (',' expr)* ')' | port-number
class FunctionalParser {
 public:
  explicit FunctionalParser(std::string_view text) : text_(text) {}

  Scheme::Node parse() {
    Scheme::Node n = expr(1);
    skip_ws();
    CVMT_REQUIRE(pos_ == text_.size(), "trailing input in scheme");
    return n;
  }

 private:
  /// Parses the node at nesting level `depth` (the root is level 1). A
  /// valid tree has at most kMaxThreads leaves and every block has two
  /// or more inputs, so no node sits deeper than kMaxThreads; deeper input
  /// is rejected before recursing, which bounds the stack on untrusted
  /// input.
  Scheme::Node expr(int depth) {
    CVMT_REQUIRE(depth <= kMaxThreads,
                 "scheme nests deeper than " +
                     std::to_string(kMaxThreads) + " levels");
    skip_ws();
    CVMT_REQUIRE(pos_ < text_.size(), "unexpected end of scheme");
    const char c = text_[pos_];
    if (std::isdigit(static_cast<unsigned char>(c))) {
      const std::size_t start = pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])))
        ++pos_;
      const int port = small_decimal(text_.substr(start, pos_ - start));
      CVMT_REQUIRE(port >= 0, "thread id in scheme has more than 3 digits");
      return leaf(port);
    }
    MergeKind kind;
    bool parallel = false;
    if (c == 'S') {
      kind = MergeKind::kSmt;
      ++pos_;
    } else if (c == 'I') {
      kind = MergeKind::kSelect;
      ++pos_;
    } else if (c == 'C') {
      kind = MergeKind::kCsmt;
      ++pos_;
      if (pos_ < text_.size() && text_[pos_] == 'P') {
        parallel = true;
        ++pos_;
      }
    } else {
      CVMT_REQUIRE(false, std::string("unexpected character '") + c +
                              "' in scheme");
      __builtin_unreachable();
    }
    expect('(');
    std::vector<Scheme::Node> children;
    children.push_back(expr(depth + 1));
    skip_ws();
    while (pos_ < text_.size() && text_[pos_] == ',') {
      ++pos_;
      children.push_back(expr(depth + 1));
      skip_ws();
    }
    expect(')');
    return block(kind, std::move(children), parallel);
  }

  void expect(char c) {
    skip_ws();
    CVMT_REQUIRE(pos_ < text_.size() && text_[pos_] == c,
                 std::string("expected '") + c + "' in scheme");
    ++pos_;
  }
  void skip_ws() {
    while (pos_ < text_.size() && text_[pos_] == ' ') ++pos_;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

namespace {

/// Full validation in one walk; on success `num_threads` is the leaf
/// count. Shared by validate() and the constructor.
std::string validate_tree(const Scheme::Node& root, int& num_threads) {
  std::vector<int> ports;
  std::string err = validate_node(root, ports);
  if (!err.empty()) return err;
  // Ports must be exactly {0..N-1}, each used once.
  std::vector<bool> seen(ports.size(), false);
  for (int p : ports) {
    if (p < 0 || static_cast<std::size_t>(p) >= ports.size())
      return "leaf thread ids must be dense 0..N-1: thread " +
             std::to_string(p) + " with " + std::to_string(ports.size()) +
             " leaves";
    if (seen[static_cast<std::size_t>(p)])
      return "duplicate thread id " + std::to_string(p) + " in scheme";
    seen[static_cast<std::size_t>(p)] = true;
  }
  const auto n = static_cast<int>(ports.size());
  if (n < 1 || n > kMaxThreads)
    return "thread count " + std::to_string(n) + " out of range 1.." +
           std::to_string(kMaxThreads);
  num_threads = n;
  return {};
}

}  // namespace

std::string Scheme::validate(const Node& root) {
  int num_threads = 0;
  return validate_tree(root, num_threads);
}

Scheme::Scheme(std::string name, Node root)
    : name_(std::move(name)), root_(std::move(root)) {
  const std::string err = validate_tree(root_, num_threads_);
  CVMT_REQUIRE(err.empty(), "malformed scheme tree: " + err);
}

Scheme Scheme::parse(std::string_view text) {
  const std::string s = to_upper(trim(text));
  CVMT_REQUIRE(!s.empty(), "empty scheme name");

  if (s.find('(') != std::string::npos) {
    FunctionalParser p(s);
    return Scheme(s, p.parse());
  }

  // A bare port number is the canonical rendering of a single leaf ("0" =
  // the 1-thread scheme), so parse(canonical()) round-trips. Any port
  // other than 0 fails dense-port validation with a clear message.
  if (std::all_of(s.begin(), s.end(), [](unsigned char c) {
        return std::isdigit(c) != 0;
      })) {
    const int port = small_decimal(s);
    CVMT_REQUIRE(port >= 0, "scheme cannot be a bare number: " + excerpt(s));
    return Scheme(s, leaf(port));
  }

  // "IMT<k>": the interleaved-multithreading baseline.
  if (s.rfind("IMT", 0) == 0) {
    const int k = small_decimal(std::string_view(s).substr(3));
    CVMT_REQUIRE(k >= 2 && k <= kMaxThreads,
                 "malformed IMT scheme name (IMT<k>, k in 2.." +
                     std::to_string(kMaxThreads) + "): " + excerpt(s));
    Scheme sch = imt(k);
    return Scheme(s, sch.root());
  }

  // "C<k>": one parallel CSMT block over k threads.
  if (s[0] == 'C' && s.size() >= 2 &&
      std::isdigit(static_cast<unsigned char>(s[1]))) {
    const int k = small_decimal(std::string_view(s).substr(1));
    CVMT_REQUIRE(k >= 2 && k <= kMaxThreads,
                 "malformed parallel scheme name (C<k>, k in 2.." +
                     std::to_string(kMaxThreads) + "): " + excerpt(s));
    Scheme sch = parallel_csmt(k);
    return Scheme(s, sch.root());
  }

  CVMT_REQUIRE(std::isdigit(static_cast<unsigned char>(s[0])),
               "scheme name must start with level count or C<k>: " +
                   excerpt(s));
  const int levels = s[0] - '0';
  const std::vector<Token> tokens = tokenize(std::string_view(s).substr(1));
  CVMT_REQUIRE(static_cast<int>(tokens.size()) == levels,
               "level digit does not match number of merge blocks: " +
                   excerpt(s));

  // Paper convention: "2XY" with two plain letters is the balanced tree of
  // Fig 8(l)-(o): X merges (T0,T1) and (T2,T3); Y merges the group results.
  if (levels == 2 && tokens[0].width == 2 && tokens[1].width == 2) {
    Node group_a = block(tokens[0].kind, {leaf(0), leaf(1)});
    Node group_b = block(tokens[0].kind, {leaf(2), leaf(3)});
    std::vector<Node> top;
    top.push_back(std::move(group_a));
    top.push_back(std::move(group_b));
    return Scheme(s, block(tokens[1].kind, std::move(top)));
  }

  // Cascade: the first block merges fresh threads; every later block merges
  // the accumulated packet with fresh threads.
  int next_port = 0;
  Node acc;
  bool have_acc = false;
  for (const Token& t : tokens) {
    std::vector<Node> inputs;
    if (have_acc) inputs.push_back(std::move(acc));
    const int fresh = have_acc ? t.width - 1 : t.width;
    for (int i = 0; i < fresh; ++i) inputs.push_back(leaf(next_port++));
    acc = block(t.kind, std::move(inputs), /*parallel=*/t.width > 2);
    have_acc = true;
  }
  return Scheme(s, std::move(acc));
}

Scheme Scheme::single_thread() { return Scheme("1T", leaf(0)); }

std::vector<Scheme> Scheme::paper_schemes_4t() {
  const char* names[] = {"C4",   "3CCC", "2CC", "1S",   "2SC3", "3CSC",
                         "2C3S", "3CCS", "3SCC", "2CS",  "2SC",  "3SSC",
                         "3SCS", "3CSS", "2SS",  "3SSS"};
  std::vector<Scheme> out;
  out.reserve(std::size(names));
  for (const char* n : names) out.push_back(parse(n));
  return out;
}

Scheme Scheme::cascade(const std::vector<MergeKind>& levels) {
  CVMT_CHECK(!levels.empty());
  std::ostringstream name;
  name << levels.size();
  Node acc = block(levels[0], {leaf(0), leaf(1)});
  name << to_char(levels[0]);
  int next_port = 2;
  for (std::size_t i = 1; i < levels.size(); ++i) {
    std::vector<Node> inputs;
    inputs.push_back(std::move(acc));
    inputs.push_back(leaf(next_port++));
    acc = block(levels[i], std::move(inputs));
    name << to_char(levels[i]);
  }
  return Scheme(name.str(), std::move(acc));
}

Scheme Scheme::parallel_csmt(int num_threads) {
  CVMT_CHECK(num_threads >= 2 && num_threads <= kMaxThreads);
  std::vector<Node> inputs;
  inputs.reserve(static_cast<std::size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) inputs.push_back(leaf(i));
  return Scheme("C" + std::to_string(num_threads),
                block(MergeKind::kCsmt, std::move(inputs), true));
}

Scheme Scheme::imt(int num_threads) {
  CVMT_CHECK(num_threads >= 2 && num_threads <= kMaxThreads);
  std::vector<Node> inputs;
  inputs.reserve(static_cast<std::size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) inputs.push_back(leaf(i));
  return Scheme("IMT" + std::to_string(num_threads),
                block(MergeKind::kSelect, std::move(inputs)));
}

namespace {
int count_blocks_rec(const Scheme::Node& node, MergeKind kind) {
  if (node.is_leaf()) return 0;
  int n = 0;
  for (const auto& child : node.children) n += count_blocks_rec(child, kind);
  if (node.kind == kind)
    n += node.parallel ? 1 : static_cast<int>(node.children.size()) - 1;
  return n;
}

void canonical_rec(const Scheme::Node& node, std::ostream& os) {
  if (node.is_leaf()) {
    os << node.port;
    return;
  }
  os << to_char(node.kind) << (node.parallel ? "P" : "") << '(';
  for (std::size_t i = 0; i < node.children.size(); ++i) {
    if (i) os << ',';
    canonical_rec(node.children[i], os);
  }
  os << ')';
}
}  // namespace

int Scheme::count_blocks(MergeKind kind) const {
  return count_blocks_rec(root_, kind);
}

std::string Scheme::canonical() const { return canonical(root_); }

std::string Scheme::canonical(const Node& node) {
  std::ostringstream os;
  canonical_rec(node, os);
  return os.str();
}

}  // namespace cvmt
