// Merging schemes: compositions of SMT and CSMT merge-control blocks.
//
// A scheme (paper §4.1, Fig 8) is a tree whose leaves are thread input
// ports and whose internal nodes are merge blocks:
//
//   * cascade `3SCC`  = C(C(S(0,1),2),3) — left-deep, one thread per level;
//   * parallel `C4`   = CP(0,1,2,3) — one 4-input parallel CSMT block,
//     functionally equivalent to the serial cascade 3CCC (§4.1);
//   * mixed `2SC3`    = CP(S(0,1),2,3);
//   * tree `2CS`      = S(C(0,1),C(2,3)) — balanced, group results merge
//     atomically (§4.1 last paragraph).
//
// The paper's scheme names are parsed by Scheme::parse; arbitrary schemes
// (any thread count) can be written in functional syntax, e.g.
// "S(CP(0,1,2),3)".
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "isa/machine_config.hpp"

namespace cvmt {

/// Merge-control block types: the paper's two merging kinds plus a
/// non-merging selector used to model the classic IMT/BMT baselines the
/// paper's related work cites (one thread issues per cycle; no merge).
enum class MergeKind : std::uint8_t {
  kSmt,     ///< operation-level merging (routing block per cluster)
  kCsmt,    ///< cluster-level merging (mux per cluster)
  kSelect,  ///< no merging: first offering input wins (IMT/BMT baselines)
};

[[nodiscard]] constexpr char to_char(MergeKind k) {
  switch (k) {
    case MergeKind::kSmt: return 'S';
    case MergeKind::kCsmt: return 'C';
    case MergeKind::kSelect: return 'I';
  }
  return '?';
}

/// A merging scheme. Immutable after construction; cheap to copy.
class Scheme {
 public:
  /// AST node: either a leaf (thread input port) or a merge block over
  /// `children`. A CSMT block with more than two inputs exists in a serial
  /// (cascaded, `parallel == false`) and a parallel (all-subset,
  /// `parallel == true`) implementation; both select the same threads —
  /// only hardware cost differs (§3).
  struct Node {
    MergeKind kind = MergeKind::kCsmt;
    bool parallel = false;
    int port = -1;  ///< >= 0 for leaves
    std::vector<Node> children;

    [[nodiscard]] bool is_leaf() const { return port >= 0; }

    friend bool operator==(const Node&, const Node&) = default;
  };

  /// Builds a scheme from an AST; validates structure (leaves are exactly
  /// ports 0..N-1, each once; internal nodes have >= 2 children; parallel
  /// nodes are CSMT). `name` is the display name. Throws CheckError with
  /// the validate() message on a malformed tree.
  Scheme(std::string name, Node root);

  /// Well-formedness check of an AST without constructing a Scheme: returns
  /// an empty string when `root` is a valid scheme tree, otherwise a
  /// human-readable description of the first defect found (duplicate thread
  /// ids, empty/single-input merge arms, non-dense ports, a parallel
  /// non-CSMT block, thread count out of range). The property-based fuzzer
  /// (src/testgen) uses this to assert generated trees are well formed and
  /// that malformed mutations are rejected rather than silently accepted.
  [[nodiscard]] static std::string validate(const Node& root);

  /// Parses a paper-style name ("1S", "3SCC", "2SC3", "2C3S", "C4", "2CS",
  /// "3SSS", ...) or functional syntax ("S(C(0,1),CP(1,2,3))" is invalid —
  /// ports must be dense — but "S(CP(0,1,2),3)" parses). Leading digit =
  /// number of levels; two plain letters after a '2' denote the balanced
  /// tree of Fig 8(l)-(o). Throws CheckError on malformed input.
  [[nodiscard]] static Scheme parse(std::string_view text);

  /// Degenerate 1-thread scheme (no merging): used for single-thread runs.
  [[nodiscard]] static Scheme single_thread();

  /// The 16 four-thread schemes of Fig 9, in the paper's cost order:
  /// C4, 3CCC, 2CC, 1S, 2SC3, 3CSC, 2C3S, 3CCS, 3SCC, 2CS, 2SC, 3SSC,
  /// 3SCS, 3CSS, 2SS, 3SSS. (1S is the 2-thread SMT baseline.)
  [[nodiscard]] static std::vector<Scheme> paper_schemes_4t();

  /// Pure cascades of N threads with per-level kinds, e.g.
  /// cascade("7SCCCCCC"-style kinds vector). Used by the 8-thread ablation.
  [[nodiscard]] static Scheme cascade(const std::vector<MergeKind>& levels);

  /// N-thread parallel CSMT ("C4", "C8", ...).
  [[nodiscard]] static Scheme parallel_csmt(int num_threads);

  /// N-thread interleaved-multithreading baseline ("IMT4"): exactly one
  /// thread issues per cycle — the highest-priority one with a ready
  /// instruction. Combined with PriorityPolicy::kStickyOnStall this
  /// becomes the Block MultiThreading (BMT) baseline.
  [[nodiscard]] static Scheme imt(int num_threads);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const Node& root() const { return root_; }
  [[nodiscard]] int num_threads() const { return num_threads_; }

  /// Number of merge-control blocks of `kind`. A serial n-input CSMT node
  /// counts n-1 blocks; a parallel one counts 1 (it is a single, wider
  /// block).
  [[nodiscard]] int count_blocks(MergeKind kind) const;

  /// Canonical functional rendering, e.g. "C(C(S(0,1),2),3)".
  [[nodiscard]] std::string canonical() const;

  /// Canonical rendering of an arbitrary (sub-)tree, e.g. "S(0,1)" for the
  /// innermost block of 3SCC. Used for per-merge-block stat labels.
  [[nodiscard]] static std::string canonical(const Node& node);

  /// Same display name and same tree (a cheaper test than comparing
  /// canonical keys, which build strings).
  friend bool operator==(const Scheme&, const Scheme&) = default;

 private:
  std::string name_;
  Node root_;
  int num_threads_ = 0;
};

}  // namespace cvmt
