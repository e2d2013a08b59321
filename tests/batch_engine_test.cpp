// SimBatch contract tests: the queue surface runs every job through the
// session path, so its results equal SimSession::run's field for field,
// in enqueue order, and malformed specs are rejected at enqueue.
#include "sim/batch_engine.hpp"

#include <gtest/gtest.h>

#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "sim/session.hpp"
#include "support/check.hpp"
#include "testgen/oracle.hpp"
#include "trace/benchmark_suite.hpp"

namespace cvmt {
namespace {

BatchRunSpec spec_for(ArtifactCache& cache, const Scheme& scheme,
                      const Workload& workload, const SimConfig& config) {
  const auto wl = cache.workload(workload.benchmarks, config.machine);
  BatchRunSpec spec;
  spec.scheme = cache.scheme(scheme, config.machine);
  spec.shared_programs = {wl, &wl->programs};
  spec.config = config;
  return spec;
}

// A grid that interleaves schemes (chains, trees, select) and changes
// the budget between jobs comes back in enqueue order, each result equal
// to a fresh session's on every counter, merge statistics included.
TEST(BatchEngine, MatchesSessionInEnqueueOrder) {
  ArtifactCache cache;
  SimSession reference(cache);
  SimBatch batch(1);
  std::vector<SimResult> expected;
  const char* schemes[] = {"3SSS", "2CC", "2SC3", "IMT4", "3CCC"};
  const std::vector<Workload>& workloads = table2_workloads();
  for (std::size_t w = 0; w < 3; ++w) {
    for (std::size_t s = 0; s < std::size(schemes); ++s) {
      SimConfig cfg;
      cfg.stats = StatsLevel::kFull;
      cfg.instruction_budget = 1000 + 700 * ((w + s) % 3);
      cfg.timeslice_cycles = 400;
      const Scheme scheme = Scheme::parse(schemes[s]);
      batch.enqueue(spec_for(cache, scheme, workloads[w], cfg));
      expected.push_back(reference.run(
          scheme, std::span<const std::string>(workloads[w].benchmarks),
          cfg));
    }
  }
  const std::vector<SimResult> results = batch.run_all();
  ASSERT_EQ(results.size(), expected.size());
  for (std::size_t i = 0; i < results.size(); ++i)
    EXPECT_EQ(compare_sim_results(expected[i], results[i],
                                  /*compare_merge_stats=*/true),
              "")
        << "job " << i;
  const SimBatch::KernelStats& ks = batch.kernel_stats();
  EXPECT_EQ(ks.generic_jobs, expected.size());
  EXPECT_EQ(ks.fused_jobs, 0u);
  EXPECT_EQ(ks.structural_jobs, 0u);
  EXPECT_TRUE(batch.run_all().empty());  // the queue was drained
}

// Malformed specs fail at enqueue, before anything runs, and the batch
// accepts only one lane.
TEST(BatchEngine, EnqueueValidatesEagerly) {
  ArtifactCache cache;
  SimConfig cfg;
  const BatchRunSpec good =
      spec_for(cache, Scheme::parse("2SC3"), table2_workloads().front(), cfg);
  SimBatch batch(1);

  BatchRunSpec no_scheme = good;
  no_scheme.scheme = nullptr;
  EXPECT_THROW(batch.enqueue(no_scheme), CheckError);

  BatchRunSpec no_programs = good;
  no_programs.shared_programs = nullptr;
  EXPECT_THROW(batch.enqueue(no_programs), CheckError);
  no_programs.shared_programs = std::make_shared<
      const std::vector<std::shared_ptr<const SyntheticProgram>>>();
  EXPECT_THROW(batch.enqueue(no_programs), CheckError);

  BatchRunSpec other_machine = good;
  other_machine.config.machine = MachineConfig::clustered(2, 4);
  EXPECT_THROW(batch.enqueue(other_machine), CheckError);

  BatchRunSpec zero_slice = good;
  zero_slice.config.timeslice_cycles = 0;
  EXPECT_THROW(batch.enqueue(zero_slice), CheckError);

  EXPECT_TRUE(batch.run_all().empty());  // nothing was queued
  EXPECT_THROW(SimBatch(0), CheckError);
  EXPECT_THROW(SimBatch(2), CheckError);
}

}  // namespace
}  // namespace cvmt
