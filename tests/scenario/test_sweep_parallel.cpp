// Determinism guarantees of the parallel sweep engine: fanning (point ×
// repeat) cells across a thread pool must produce results bit-identical to
// the serial order, for both substrates. These tests are the TSan lane's
// main target — keep every spec small.

#include <gtest/gtest.h>

#include "scenario/sweep.hpp"
#include "expect_identical.hpp"

namespace ehpc::scenario {
namespace {

using elastic::PolicyMode;
using elastic::RunMetrics;

ScenarioSpec fast_spec() {
  ScenarioSpec spec;
  spec.repeats = 5;
  spec.calibrated = false;
  spec.seed = 2025;
  return spec;
}

TEST(SweepParallel, SubmissionGapSweepIsBitIdenticalAcrossThreadCounts) {
  ScenarioSpec spec = fast_spec();
  spec.axis = SweepAxis::kSubmissionGap;
  spec.axis_values = {0.0, 90.0, 300.0};
  const auto serial = run_sweep(spec, 1);
  for (int threads : {2, 8}) {
    expect_identical(serial, run_sweep(spec, threads));
  }
}

TEST(SweepParallel, RescaleGapSweepIsBitIdenticalAcrossThreadCounts) {
  ScenarioSpec spec = fast_spec();
  spec.axis = SweepAxis::kRescaleGap;
  spec.axis_values = {0.0, 600.0};
  expect_identical(run_sweep(spec, 1), run_sweep(spec, 8));
}

TEST(SweepParallel, AutoThreadCountIsBitIdenticalToo) {
  ScenarioSpec spec = fast_spec();
  spec.axis = SweepAxis::kSubmissionGap;
  spec.axis_values = {0.0, 120.0};
  expect_identical(run_sweep(spec, 1), run_sweep(spec, /*threads=*/0));
}

TEST(SweepParallel, ClusterSubstrateSweepsDeterministically) {
  // The full operator machinery (cluster, controller, pod churn) per cell,
  // in parallel — each cell owns a private cluster instance.
  ScenarioSpec spec = fast_spec();
  spec.substrate = Substrate::kCluster;
  spec.num_jobs = 4;
  spec.repeats = 3;
  spec.policies = {PolicyMode::kElastic, PolicyMode::kRigidMin};
  const auto serial = compare_policies(spec, 1);
  const auto parallel = compare_policies(spec, 8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (const auto& [mode, metrics] : serial) {
    expect_identical(metrics, parallel.at(mode), to_string(mode));
  }
}

TEST(SweepParallel, RunRepeatsIsBitIdenticalAcrossThreadCounts) {
  const ScenarioSpec spec = fast_spec();
  elastic::PolicyConfig policy;
  policy.mode = PolicyMode::kElastic;
  policy.rescale_gap_s = 0.0;  // rescale as often as possible
  expect_identical(run_repeats(spec, policy, 1), run_repeats(spec, policy, 8),
                   "run_repeats");
}

TEST(SweepParallel, MoreThreadsThanCellsIsFine) {
  ScenarioSpec spec = fast_spec();
  spec.repeats = 2;
  const auto serial = compare_policies(spec, 1);
  const auto parallel = compare_policies(spec, 64);
  for (const auto& [mode, metrics] : serial) {
    expect_identical(metrics, parallel.at(mode), to_string(mode));
  }
}

TEST(SweepParallel, WorkerExceptionsPropagateToTheCaller) {
  ScenarioSpec spec = fast_spec();
  spec.axis = SweepAxis::kSubmissionGap;
  spec.axis_values = {0.0, 90.0};
  // The spec validates, but every cell fails inside its worker: each cell
  // opens the trace file when it builds its source.
  spec.trace_path = "no_such_trace_file.csv";
  EXPECT_THROW(run_sweep(spec, 4), PreconditionError);
  EXPECT_THROW(run_sweep(spec, 1), PreconditionError);
}

}  // namespace
}  // namespace ehpc::scenario
