#include "sim/trace.hpp"

#include <gtest/gtest.h>

namespace ehpc::sim {
namespace {

TEST(TraceRecorder, EmptySeriesLookups) {
  TraceRecorder tr;
  EXPECT_FALSE(tr.has("x"));
  EXPECT_TRUE(tr.series("x").empty());
  EXPECT_DOUBLE_EQ(tr.value_at("x", 1.0, -1.0), -1.0);
}

TEST(TraceRecorder, ValueAtFollowsStepFunction) {
  TraceRecorder tr;
  tr.record("u", 0.0, 1.0);
  tr.record("u", 10.0, 2.0);
  EXPECT_DOUBLE_EQ(tr.value_at("u", 0.0), 1.0);
  EXPECT_DOUBLE_EQ(tr.value_at("u", 5.0), 1.0);
  EXPECT_DOUBLE_EQ(tr.value_at("u", 10.0), 2.0);
  EXPECT_DOUBLE_EQ(tr.value_at("u", 99.0), 2.0);
}

TEST(TraceRecorder, ValueBeforeFirstSampleIsFallback) {
  TraceRecorder tr;
  tr.record("u", 5.0, 3.0);
  EXPECT_DOUBLE_EQ(tr.value_at("u", 1.0, 0.5), 0.5);
}

TEST(TraceRecorder, AverageOfStepSeries) {
  TraceRecorder tr;
  tr.record("u", 0.0, 0.0);
  tr.record("u", 5.0, 1.0);
  EXPECT_DOUBLE_EQ(tr.average("u", 0.0, 10.0), 0.5);
}

TEST(TraceRecorder, AverageOverSubWindow) {
  TraceRecorder tr;
  tr.record("u", 0.0, 2.0);
  tr.record("u", 10.0, 4.0);
  EXPECT_DOUBLE_EQ(tr.average("u", 5.0, 15.0), 3.0);
}

TEST(TraceRecorder, RejectsTimeTravel) {
  TraceRecorder tr;
  tr.record("u", 5.0, 1.0);
  EXPECT_THROW(tr.record("u", 4.0, 1.0), PreconditionError);
}

}  // namespace
}  // namespace ehpc::sim
