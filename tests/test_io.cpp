// Tests for the CSV tokenizer and workload/result serialization.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "lorasched/io/atomic_file.h"
#include "lorasched/io/csv.h"
#include "lorasched/io/serialize.h"
#include "lorasched/sim/engine.h"
#include "test_helpers.h"

namespace lorasched::io {
namespace {

TEST(Csv, ParsePlainFields) {
  const auto fields = parse_csv_line("a,b,c");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[2], "c");
}

TEST(Csv, ParseQuotedFieldsWithCommasAndQuotes) {
  const auto fields = parse_csv_line(R"(x,"hello, ""world""",y)");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[1], "hello, \"world\"");
}

TEST(Csv, ParseEmptyFields) {
  const auto fields = parse_csv_line(",,");
  ASSERT_EQ(fields.size(), 3u);
  for (const auto& f : fields) EXPECT_TRUE(f.empty());
}

TEST(Csv, ParseRejectsMalformedQuotes) {
  EXPECT_THROW(parse_csv_line(R"(ab"cd)"), std::invalid_argument);
  EXPECT_THROW(parse_csv_line(R"("unterminated)"), std::invalid_argument);
}

TEST(Csv, FormatQuotesOnlyWhenNeeded) {
  EXPECT_EQ(format_csv_line({"a", "b"}), "a,b");
  EXPECT_EQ(format_csv_line({"a,b"}), "\"a,b\"");
  EXPECT_EQ(format_csv_line({"say \"hi\""}), "\"say \"\"hi\"\"\"");
}

TEST(Csv, RoundTripThroughStreams) {
  const std::vector<std::vector<std::string>> records{
      {"h1", "h2"}, {"plain", "with, comma"}, {"\"q\"", ""}};
  std::stringstream buffer;
  write_csv(buffer, records);
  EXPECT_EQ(read_csv(buffer), records);
}

TEST(Csv, ReadSkipsBlankAndHandlesCrlf) {
  std::stringstream buffer("a,b\r\n\r\nc,d\n");
  const auto records = read_csv(buffer);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1][1], "d");
}

TEST(Serialize, TasksRoundTripExactly) {
  const Instance instance = make_instance(testing::small_scenario(33));
  ASSERT_FALSE(instance.tasks.empty());
  std::stringstream buffer;
  write_tasks_csv(buffer, instance.tasks);
  const std::vector<Task> loaded = read_tasks_csv(buffer);
  ASSERT_EQ(loaded.size(), instance.tasks.size());
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    const Task& a = instance.tasks[i];
    const Task& b = loaded[i];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.arrival, b.arrival);
    EXPECT_EQ(a.deadline, b.deadline);
    EXPECT_DOUBLE_EQ(a.dataset_samples, b.dataset_samples);
    EXPECT_EQ(a.epochs, b.epochs);
    EXPECT_DOUBLE_EQ(a.work, b.work);
    EXPECT_DOUBLE_EQ(a.mem_gb, b.mem_gb);
    EXPECT_DOUBLE_EQ(a.compute_share, b.compute_share);
    EXPECT_EQ(a.needs_prep, b.needs_prep);
    EXPECT_EQ(a.model, b.model);
    EXPECT_DOUBLE_EQ(a.bid, b.bid);
    EXPECT_DOUBLE_EQ(a.true_value, b.true_value);
  }
}

TEST(Serialize, TasksRejectBadHeader) {
  std::stringstream buffer("id,arrival\n1,2\n");
  EXPECT_THROW((void)read_tasks_csv(buffer), std::invalid_argument);
}

TEST(Serialize, TasksRejectBadNumbers) {
  const Task task = testing::make_task(0, 0, 5, 100.0);
  std::stringstream good;
  write_tasks_csv(good, {task});
  std::string text = good.str();
  // Corrupt the bid column.
  const auto pos = text.rfind("100");
  text.replace(pos, 3, "1x0");
  std::stringstream bad(text);
  EXPECT_THROW((void)read_tasks_csv(bad), std::invalid_argument);
}

TEST(Serialize, OutcomesCsvHasHeaderAndRows) {
  TaskOutcome outcome;
  outcome.task = 3;
  outcome.admitted = true;
  outcome.bid = 1.5;
  outcome.payment = 0.75;
  std::stringstream buffer;
  write_outcomes_csv(buffer, {outcome});
  const auto records = read_csv(buffer);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0][0], "task");
  EXPECT_EQ(records[1][0], "3");
  EXPECT_EQ(records[1][1], "1");
}

TEST(Serialize, ScenarioRoundTrip) {
  ScenarioConfig config;
  config.nodes = 17;
  config.fleet = FleetKind::kA40Only;
  config.horizon = 99;
  config.arrival_rate = 3.25;
  config.trace = TraceKind::kPhilly;
  config.deadline = DeadlineKind::kSlack;
  config.vendors = 9;
  config.prep_probability = 0.55;
  config.base_model_gb = 7.5;
  config.seed = 123456;
  std::stringstream buffer;
  write_scenario(buffer, config);
  const ScenarioConfig loaded = read_scenario(buffer);
  EXPECT_EQ(loaded.nodes, 17);
  EXPECT_EQ(loaded.fleet, FleetKind::kA40Only);
  EXPECT_EQ(loaded.horizon, 99);
  EXPECT_DOUBLE_EQ(loaded.arrival_rate, 3.25);
  ASSERT_TRUE(loaded.trace.has_value());
  EXPECT_EQ(*loaded.trace, TraceKind::kPhilly);
  EXPECT_EQ(loaded.deadline, DeadlineKind::kSlack);
  EXPECT_EQ(loaded.vendors, 9);
  EXPECT_DOUBLE_EQ(loaded.prep_probability, 0.55);
  EXPECT_DOUBLE_EQ(loaded.base_model_gb, 7.5);
  EXPECT_EQ(loaded.seed, 123456u);
}

TEST(Serialize, ScenarioWithoutTraceStaysPoisson) {
  ScenarioConfig config;
  std::stringstream buffer;
  write_scenario(buffer, config);
  const ScenarioConfig loaded = read_scenario(buffer);
  EXPECT_FALSE(loaded.trace.has_value());
}

TEST(Serialize, ScenarioRejectsUnknownKeysAndValues) {
  std::stringstream unknown_key("wat = 1\n");
  EXPECT_THROW((void)read_scenario(unknown_key), std::invalid_argument);
  std::stringstream bad_fleet("fleet = H200\n");
  EXPECT_THROW((void)read_scenario(bad_fleet), std::invalid_argument);
  std::stringstream no_equals("nodes 5\n");
  EXPECT_THROW((void)read_scenario(no_equals), std::invalid_argument);
}

TEST(Serialize, ScenarioSkipsComments) {
  std::stringstream buffer("# a comment\nnodes = 3\n");
  EXPECT_EQ(read_scenario(buffer).nodes, 3);
}

TEST(Serialize, BidLinesRoundTripExactly) {
  const Instance instance = make_instance(testing::small_scenario(21));
  ASSERT_FALSE(instance.tasks.empty());
  for (const Task& task : instance.tasks) {
    const Task parsed = parse_bid_line(format_bid_line(task));
    EXPECT_EQ(parsed.id, task.id);
    EXPECT_EQ(parsed.arrival, task.arrival);
    EXPECT_EQ(parsed.deadline, task.deadline);
    EXPECT_EQ(parsed.work, task.work);
    EXPECT_EQ(parsed.mem_gb, task.mem_gb);
    EXPECT_EQ(parsed.compute_share, task.compute_share);
    EXPECT_EQ(parsed.bid, task.bid);
    EXPECT_EQ(parsed.true_value, task.true_value);
    EXPECT_EQ(parsed.needs_prep, task.needs_prep);
  }
}

TEST(Serialize, BidLineRejectsGarbage) {
  EXPECT_THROW((void)parse_bid_line("not,a,bid"), std::invalid_argument);
  EXPECT_THROW((void)parse_bid_line(""), std::invalid_argument);
}

TEST(Serialize, ReplayedTasksProduceIdenticalAuction) {
  // Export, reload, and re-run: the auction outcome must be identical —
  // the serialization is faithful enough for replay experiments.
  const Instance original = make_instance(testing::small_scenario(35));
  std::stringstream buffer;
  write_tasks_csv(buffer, original.tasks);
  Instance replay = original;
  replay.tasks = read_tasks_csv(buffer);

  Pdftsp policy_a(pdftsp_config_for(original), original.cluster,
                  original.energy, original.horizon);
  Pdftsp policy_b(pdftsp_config_for(replay), replay.cluster, replay.energy,
                  replay.horizon);
  const SimResult a = run_simulation(original, policy_a);
  const SimResult b = run_simulation(replay, policy_b);
  EXPECT_DOUBLE_EQ(a.metrics.social_welfare, b.metrics.social_welfare);
  EXPECT_EQ(a.metrics.admitted, b.metrics.admitted);
}

// Checkpoint streams open with a "<magic> <version>" header; the two
// failure modes must be told apart: a foreign file is "not a checkpoint"
// while a version skew names both versions so the operator knows which
// side to upgrade.
TEST(Serialize, CheckpointRejectsForeignMagicWithClearError) {
  std::istringstream garbage("some-other-format 3\n");
  try {
    (void)read_sharded_checkpoint(garbage);
    FAIL() << "foreign magic must be rejected";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("not a sharded checkpoint stream"), std::string::npos)
        << what;
    EXPECT_NE(what.find("lorasched-sharded-checkpoint"), std::string::npos)
        << what;
    EXPECT_NE(what.find("some-other-format"), std::string::npos) << what;
  }
}

TEST(Serialize, CheckpointNamesBothVersionsOnSkew) {
  std::ostringstream out;
  write_sharded_checkpoint(out, shard::ShardedCheckpoint{});
  std::string bytes = out.str();
  const std::string header = "lorasched-sharded-checkpoint 1";
  ASSERT_EQ(bytes.rfind(header, 0), 0u);  // writer emits the v1 header
  bytes.replace(0, header.size(), "lorasched-sharded-checkpoint 99");
  std::istringstream in(bytes);
  try {
    (void)read_sharded_checkpoint(in);
    FAIL() << "version skew must be rejected";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("version 99"), std::string::npos) << what;
    EXPECT_NE(what.find("reads version 1"), std::string::npos) << what;
  }
}

TEST(Serialize, ShardedCheckpointHeaderIsValidatedToo) {
  // The retired single-service format has no reader: feeding one to the
  // checkpoint reader must name the expected magic rather than mis-parse.
  std::istringstream retired("lorasched-checkpoint 1\n");
  try {
    (void)read_sharded_checkpoint(retired);
    FAIL() << "retired checkpoint format must be rejected";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("not a sharded checkpoint stream"), std::string::npos)
        << what;
    EXPECT_NE(what.find("lorasched-sharded-checkpoint"), std::string::npos)
        << what;
  }
}

// --- Atomic file replacement -------------------------------------------------

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

/// A fresh empty directory under the system temp dir, removed at scope exit.
class ScratchDir {
 public:
  ScratchDir() {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    path_ = std::filesystem::temp_directory_path() /
            ("lorasched_" + std::string(info->name()) + "_" +
             std::to_string(::getpid()));
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() { std::filesystem::remove_all(path_); }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  [[nodiscard]] std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  std::filesystem::path path_;
};

TEST(AtomicFile, ReplacesExistingFileAndLeavesNoTemp) {
  const ScratchDir dir;
  const std::string path = dir.file("ck.txt");
  replace_file(path, "first\n");
  EXPECT_EQ(read_file(path), "first\n");
  replace_file(path, "second, longer contents\n");
  EXPECT_EQ(read_file(path), "second, longer contents\n");
  replace_file(path, "");
  EXPECT_EQ(read_file(path), "");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(AtomicFile, FailureLeavesTheOldFileIntact) {
  const ScratchDir dir;
  const std::string path = dir.file("metrics.prom");
  replace_file(path, "old\n");
  // A directory squatting on the temp name makes the write step fail.
  std::filesystem::create_directory(path + ".tmp");
  EXPECT_THROW(replace_file(path, "new\n"), std::runtime_error);
  EXPECT_EQ(read_file(path), "old\n");

  // A missing parent directory fails before anything is written.
  EXPECT_THROW(replace_file(dir.file("absent/ck.txt"), "x"),
               std::runtime_error);
  EXPECT_FALSE(std::filesystem::exists(dir.file("absent")));
}

}  // namespace
}  // namespace lorasched::io
