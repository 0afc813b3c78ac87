// Tests for the Dynamic-ATM training controller (§III-D): p doubling on
// failure, capping at 100%, the L_training success streak, the unstable
// and output-pointer blacklist.
#include <gtest/gtest.h>

#include "atm/training.hpp"

namespace atm {
namespace {

rt::AtmParams params(std::uint32_t l, double tau) { return {l, tau}; }

TEST(Training, StartsAtMinP) {
  TrainingController ctl(params(15, 0.01));
  EXPECT_EQ(ctl.phase(), TrainingPhase::Training);
  EXPECT_DOUBLE_EQ(ctl.current_p(), kMinP);
}

TEST(Training, FailureDoublesP) {
  TrainingController ctl(params(15, 0.01));
  ctl.report_trained(0.5);  // tau >= tau_max
  EXPECT_DOUBLE_EQ(ctl.current_p(), 2 * kMinP);
  ctl.report_trained(0.5);
  EXPECT_DOUBLE_EQ(ctl.current_p(), 4 * kMinP);
}

TEST(Training, PCapsAtOne) {
  TrainingController ctl(params(15, 0.01));
  for (int i = 0; i < 40; ++i) ctl.report_trained(1.0);
  EXPECT_DOUBLE_EQ(ctl.current_p(), 1.0);
  EXPECT_EQ(ctl.phase(), TrainingPhase::Training);  // still needs successes
}

TEST(Training, FifteenStepsReachFullP) {
  // Paper: "15 possible configurations until we reach the maximum p=100%".
  TrainingController ctl(params(15, 0.01));
  for (int i = 0; i < 15; ++i) ctl.report_trained(1.0);
  EXPECT_DOUBLE_EQ(ctl.current_p(), 1.0);
}

TEST(Training, LSuccessesEndTraining) {
  TrainingController ctl(params(5, 0.01));
  for (int i = 0; i < 4; ++i) {
    ctl.report_trained(0.001);
    EXPECT_EQ(ctl.phase(), TrainingPhase::Training);
  }
  ctl.report_trained(0.001);
  EXPECT_EQ(ctl.phase(), TrainingPhase::Steady);
}

TEST(Training, FailureResetsStreak) {
  TrainingController ctl(params(3, 0.01));
  ctl.report_trained(0.001);
  ctl.report_trained(0.001);
  ctl.report_trained(0.9);  // reset + double
  ctl.report_trained(0.001);
  ctl.report_trained(0.001);
  EXPECT_EQ(ctl.phase(), TrainingPhase::Training);
  ctl.report_trained(0.001);
  EXPECT_EQ(ctl.phase(), TrainingPhase::Steady);
}

TEST(Training, TauExactlyAtThresholdFails) {
  // Paper: "if tau >= tau_max, we double the value of p".
  TrainingController ctl(params(15, 0.01));
  ctl.report_trained(0.01);
  EXPECT_DOUBLE_EQ(ctl.current_p(), 2 * kMinP);
}

TEST(Training, SteadyControllerIgnoresReports) {
  TrainingController ctl(rt::AtmParams{}, 0.5, TrainingPhase::Steady);
  EXPECT_EQ(ctl.phase(), TrainingPhase::Steady);
  EXPECT_DOUBLE_EQ(ctl.current_p(), 0.5);
  ctl.report_trained(1.0);
  EXPECT_DOUBLE_EQ(ctl.current_p(), 0.5);  // p frozen
}

TEST(Training, PHistoryRecordsSteps) {
  TrainingController ctl(params(15, 0.01));
  ctl.report_trained(1.0);
  ctl.report_trained(1.0);
  const auto history = ctl.p_history();
  ASSERT_EQ(history.size(), 3u);
  EXPECT_DOUBLE_EQ(history[0], kMinP);
  EXPECT_DOUBLE_EQ(history[1], 2 * kMinP);
  EXPECT_DOUBLE_EQ(history[2], 4 * kMinP);
}

TEST(Training, BlacklistMembership) {
  TrainingController ctl(params(15, 0.01));
  float out1[4], out2[4];
  rt::Task bad;
  bad.accesses.push_back(rt::out(out1, 4));
  rt::Task good;
  good.accesses.push_back(rt::out(out2, 4));

  EXPECT_FALSE(ctl.is_blacklisted(bad));
  ctl.blacklist_outputs(bad);
  EXPECT_TRUE(ctl.is_blacklisted(bad));
  EXPECT_FALSE(ctl.is_blacklisted(good));
  EXPECT_EQ(ctl.blacklist_size(), 1u);
}

TEST(Training, BlacklistChecksAnyOutputPointer) {
  TrainingController ctl(params(15, 0.01));
  float shared[4], other[4];
  rt::Task writer;
  writer.accesses.push_back(rt::out(shared, 4));
  ctl.blacklist_outputs(writer);

  rt::Task multi;
  multi.accesses.push_back(rt::out(other, 4));
  multi.accesses.push_back(rt::out(shared, 4));  // overlaps the bad pointer
  EXPECT_TRUE(ctl.is_blacklisted(multi));
}

TEST(Training, BlacklistIgnoresInputs) {
  TrainingController ctl(params(15, 0.01));
  float buf[4];
  rt::Task writer;
  writer.accesses.push_back(rt::out(buf, 4));
  ctl.blacklist_outputs(writer);

  rt::Task reader;
  reader.accesses.push_back(rt::in(static_cast<const float*>(buf), 4));
  EXPECT_FALSE(ctl.is_blacklisted(reader));
}

TEST(Training, MemoryAccountingNonZero) {
  TrainingController ctl(params(15, 0.01));
  EXPECT_GT(ctl.memory_bytes(), 0u);
}

}  // namespace
}  // namespace atm
