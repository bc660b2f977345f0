// Negative-path coverage for validate_schedule: one failing schedule per
// paper constraint (4a)-(4e), each asserting the diagnostic names the
// violated constraint — the message is load-bearing, it is what the engine
// embeds in the std::logic_error a buggy policy dies with.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "lorasched/cluster/cluster.h"
#include "lorasched/cluster/gpu_profile.h"
#include "lorasched/core/schedule.h"
#include "lorasched/sim/validator.h"
#include "lorasched/types.h"
#include "lorasched/workload/task.h"

namespace lorasched {
namespace {

constexpr Slot kHorizon = 10;

Cluster make_cluster() {
  GpuProfile p;
  p.name = "test-gpu";
  p.compute_per_slot = 40.0;  // task rate below: 0.25 * 40 = 10 samples/slot
  p.mem_gb = 80.0;
  p.power_kw = 0.4;
  p.hourly_cost = 1.5;
  return Cluster({p, p}, 10.0);
}

Task make_task() {
  Task t;
  t.id = 7;
  t.arrival = 2;
  t.deadline = 6;
  t.work = 25.0;  // needs 3 of the 5 window slots at 10 samples/slot
  t.mem_gb = 2.0;
  t.compute_share = 0.25;
  t.bid = 5.0;
  t.true_value = 5.0;
  return t;
}

Schedule make_schedule(const Task& t) {
  Schedule s;
  s.task = t.id;
  s.run = {{0, 2}, {0, 3}, {1, 4}};
  return s;
}

class ValidatorTest : public ::testing::Test {
 protected:
  Cluster cluster_ = make_cluster();
  Task task_ = make_task();
  Schedule schedule_ = make_schedule(task_);
};

TEST_F(ValidatorTest, WellFormedSchedulePasses) {
  EXPECT_EQ(validate_schedule(task_, schedule_, cluster_, kHorizon), "");
}

TEST_F(ValidatorTest, MissingVendorNames4a) {
  task_.needs_prep = true;  // schedule_.vendor stays kNoVendor
  const std::string why =
      validate_schedule(task_, schedule_, cluster_, kHorizon);
  EXPECT_NE(why.find("(4a)"), std::string::npos) << why;
  EXPECT_NE(why.find("no vendor"), std::string::npos) << why;
}

TEST_F(ValidatorTest, SpuriousVendorNames4a) {
  schedule_.vendor = 0;  // task_.needs_prep is false
  const std::string why =
      validate_schedule(task_, schedule_, cluster_, kHorizon);
  EXPECT_NE(why.find("(4a)"), std::string::npos) << why;
  EXPECT_NE(why.find("without pre-processing"), std::string::npos) << why;
}

TEST_F(ValidatorTest, TwoNodesInOneSlotNames4b) {
  task_.work = 15.0;
  schedule_.run = {{0, 3}, {1, 3}};
  const std::string why =
      validate_schedule(task_, schedule_, cluster_, kHorizon);
  EXPECT_NE(why.find("(4b)"), std::string::npos) << why;
}

TEST_F(ValidatorTest, SlotBeforeEarliestStartNames4c) {
  schedule_.run = {{0, 1}, {0, 3}, {1, 4}};  // slot 1 precedes arrival 2
  EXPECT_EQ(validate_schedule(task_, schedule_, cluster_, kHorizon),
            "slot 1 before earliest start 2 (4c)");
}

TEST_F(ValidatorTest, PrepDelayPushesEarliestStartNames4c) {
  task_.needs_prep = true;
  schedule_.vendor = 1;
  schedule_.prep_delay = 2;  // earliest start becomes 4; slots 2, 3 violate
  EXPECT_EQ(validate_schedule(task_, schedule_, cluster_, kHorizon),
            "slot 2 before earliest start 4 (4c)");
}

TEST_F(ValidatorTest, SlotAfterDeadlineNames4d) {
  schedule_.run = {{0, 2}, {0, 3}, {1, 7}};  // slot 7 exceeds deadline 6
  EXPECT_EQ(validate_schedule(task_, schedule_, cluster_, kHorizon),
            "slot 7 after deadline 6 (4d)");
}

TEST_F(ValidatorTest, WorkShortfallNames4e) {
  schedule_.run = {{0, 2}};  // 10 of 25 samples
  // Default stream formatting ("10"), not std::to_string's ("10.000000").
  EXPECT_EQ(validate_schedule(task_, schedule_, cluster_, kHorizon),
            "work shortfall: scheduled 10 of 25 samples (4e)");
}

TEST_F(ValidatorTest, ShareOverrideCountsTowardWork) {
  // At share 0.125 the same three slots process only 15 samples: the
  // validator must price the override, not the task's own batch size.
  schedule_.share_override = 0.125;
  EXPECT_EQ(validate_schedule(task_, schedule_, cluster_, kHorizon),
            "work shortfall: scheduled 15 of 25 samples (4e)");
}

TEST_F(ValidatorTest, UnknownNodeRejected) {
  schedule_.run = {{5, 2}, {0, 3}, {1, 4}};
  const std::string why =
      validate_schedule(task_, schedule_, cluster_, kHorizon);
  EXPECT_NE(why.find("unknown node"), std::string::npos) << why;
}

TEST_F(ValidatorTest, SlotBeyondHorizonRejected) {
  task_.deadline = 20;
  schedule_.run = {{0, 2}, {0, 3}, {1, 12}};  // slot 12 >= horizon 10
  const std::string why =
      validate_schedule(task_, schedule_, cluster_, kHorizon);
  EXPECT_NE(why.find("beyond horizon"), std::string::npos) << why;
}

TEST_F(ValidatorTest, ForeignTaskIdRejected) {
  schedule_.task = 99;
  const std::string why =
      validate_schedule(task_, schedule_, cluster_, kHorizon);
  EXPECT_NE(why.find("belongs to task"), std::string::npos) << why;
}

TEST_F(ValidatorTest, RequireValidScheduleThrowsWithConstraintTag) {
  schedule_.run = {{0, 3}, {1, 3}};
  try {
    require_valid_schedule(task_, schedule_, cluster_, kHorizon);
    FAIL() << "expected std::logic_error";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("(4b)"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace lorasched
