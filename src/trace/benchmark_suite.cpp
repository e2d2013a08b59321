#include "trace/benchmark_suite.hpp"

#include "support/check.hpp"

namespace cvmt {
namespace {

/// Builds one profile row. Targets are the paper's Table 1 columns; the
/// remaining parameters shape the op mix and memory behaviour.
BenchmarkProfile make_profile(std::string name, IlpDegree ilp, double ipc_r,
                              double ipc_p, double mean_ops, double mem_frac,
                              double mul_frac, double body, double hot_kb,
                              std::uint64_t seed) {
  BenchmarkProfile p;
  p.name = std::move(name);
  p.ilp = ilp;
  p.target_ipc_real = ipc_r;
  p.target_ipc_perfect = ipc_p;
  p.mean_ops_per_instr = mean_ops;
  p.mem_op_frac = mem_frac;
  p.mul_op_frac = mul_frac;
  p.mean_body_instrs = body;
  p.hot_bytes = static_cast<std::uint64_t>(hot_kb * 1024.0);
  p.seed = seed;
  return p;
}

std::vector<BenchmarkProfile> build_table1() {
  using enum IlpDegree;
  std::vector<BenchmarkProfile> t;
  //                    name          ILP  IPCr  IPCp  ops  mem   mul   body hotKB seed
  t.push_back(make_profile("mcf",        kLow,  0.96, 1.34,  2.0, 0.40, 0.01, 10, 24, 101));
  t.push_back(make_profile("bzip2",      kLow,  0.81, 0.83,  1.5, 0.30, 0.01, 14, 16, 102));
  t.push_back(make_profile("blowfish",   kLow,  1.11, 1.47,  2.2, 0.25, 0.02, 12, 12, 103));
  t.push_back(make_profile("gsmencode",  kLow,  1.07, 1.07,  1.8, 0.20, 0.08, 12,  8, 104));
  t.push_back(make_profile("g721encode", kMedium, 1.75, 1.76, 2.6, 0.22, 0.06, 14,  8, 105));
  t.push_back(make_profile("g721decode", kMedium, 1.75, 1.76, 2.6, 0.22, 0.06, 14,  8, 106));
  t.push_back(make_profile("cjpeg",      kMedium, 1.12, 1.66, 2.4, 0.28, 0.10, 14, 20, 107));
  t.push_back(make_profile("djpeg",      kMedium, 1.76, 1.77, 2.7, 0.26, 0.10, 14, 16, 108));
  t.push_back(make_profile("imgpipe",    kHigh, 3.81, 4.05,  5.5, 0.28, 0.08, 16, 24, 109));
  t.push_back(make_profile("x264",       kHigh, 3.89, 4.04,  5.6, 0.25, 0.10, 18, 24, 110));
  t.push_back(make_profile("idct",       kHigh, 4.79, 5.27,  7.0, 0.22, 0.14, 14, 12, 111));
  t.push_back(make_profile("colorspace", kHigh, 5.47, 8.88, 11.0, 0.30, 0.12, 24, 20, 112));

  // Control-heavy applications branch more; streaming kernels barely.
  t[0].mid_branch_frac = 0.12;  // mcf
  t[1].mid_branch_frac = 0.15;  // bzip2
  t[11].mid_branch_frac = 0.02;  // colorspace
  t[11].mean_trip_count = 96;    // long pixel loops

  // Cluster spread: the trace scheduler packs narrow (low/medium-ILP)
  // code into its home cluster but spreads wide code across all clusters
  // to expose ILP — which is exactly what starves CSMT on high-ILP
  // threads (Fig 6's LLHH spike). Placement never changes single-thread
  // timing, only merge opportunity; these three values were calibrated
  // against Fig 6's average and per-workload profile.
  for (auto& p : t) {
    switch (p.ilp) {
      case IlpDegree::kLow: p.ops_per_cluster_target = 3.0; break;
      case IlpDegree::kMedium: p.ops_per_cluster_target = 3.0; break;
      case IlpDegree::kHigh: p.ops_per_cluster_target = 2.0; break;
    }
  }
  for (auto& p : t) p.validate();
  return t;
}

std::vector<Workload> build_table2() {
  return {
      {"LLLL", {"mcf", "bzip2", "blowfish", "gsmencode"}},
      {"LMMH", {"bzip2", "cjpeg", "djpeg", "imgpipe"}},
      {"MMMM", {"g721encode", "g721decode", "cjpeg", "djpeg"}},
      {"LLMM", {"gsmencode", "blowfish", "g721encode", "djpeg"}},
      {"LLMH", {"mcf", "blowfish", "cjpeg", "x264"}},
      {"LLHH", {"mcf", "blowfish", "x264", "idct"}},
      {"LMHH", {"gsmencode", "g721encode", "imgpipe", "colorspace"}},
      {"MMHH", {"djpeg", "g721decode", "idct", "colorspace"}},
      {"HHHH", {"x264", "idct", "imgpipe", "colorspace"}},
  };
}

}  // namespace

const std::vector<BenchmarkProfile>& table1_profiles() {
  static const std::vector<BenchmarkProfile> kTable = build_table1();
  return kTable;
}

const BenchmarkProfile& profile_by_name(std::string_view name) {
  for (const BenchmarkProfile& p : table1_profiles())
    if (p.name == name) return p;
  CVMT_CHECK_MSG(false, "unknown benchmark: " + std::string(name));
  __builtin_unreachable();
}

const std::vector<Workload>& table2_workloads() {
  static const std::vector<Workload> kTable = build_table2();
  return kTable;
}

}  // namespace cvmt
