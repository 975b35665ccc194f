#include "charm/checkpoint.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace ehpc::charm {
namespace {

ElementRecord record(PeId pe, double modeled_bytes, std::size_t payload = 8) {
  ElementRecord rec;
  rec.array = 0;
  rec.elem = 0;
  rec.pe = pe;
  rec.payload.resize(payload);
  rec.modeled_bytes = modeled_bytes;
  return rec;
}

TEST(MemCheckpoint, TotalsTrackAddAndClear) {
  MemCheckpoint ckpt;
  ckpt.add(record(0, 100.0, 16));
  ckpt.add(record(1, 50.0, 8));
  EXPECT_EQ(ckpt.size(), 2u);
  EXPECT_DOUBLE_EQ(ckpt.total_modeled_bytes(), 150.0);
  ckpt.clear();
  EXPECT_TRUE(ckpt.empty());
  EXPECT_DOUBLE_EQ(ckpt.total_modeled_bytes(), 0.0);
}

TEST(MemCheckpoint, RecordOnNegativePeIsAPreconditionViolation) {
  MemCheckpoint ckpt;
  EXPECT_THROW(ckpt.add(record(-1, 10.0)), PreconditionError);
  EXPECT_TRUE(ckpt.empty());
}

}  // namespace
}  // namespace ehpc::charm
