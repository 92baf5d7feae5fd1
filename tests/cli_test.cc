#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "dataframe/csv.h"
#include "tools/cli.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace arda::tools {
namespace {

namespace fs = std::filesystem;

TEST(CliParseTest, RequiredFlags) {
  Result<CliOptions> options = ParseCliArgs(
      {"--data=/tmp/x", "--base=sales", "--target=y"});
  ASSERT_TRUE(options.ok());
  EXPECT_EQ(options->data_dir, "/tmp/x");
  EXPECT_EQ(options->base_table, "sales");
  EXPECT_EQ(options->target, "y");
  EXPECT_EQ(options->run.selector, "rifs");
  EXPECT_EQ(options->run.task, "regression");
}

TEST(CliParseTest, MissingRequiredFails) {
  EXPECT_FALSE(ParseCliArgs({"--data=/tmp/x"}).ok());
  EXPECT_FALSE(ParseCliArgs({}).ok());
}

TEST(CliParseTest, HelpSkipsValidation) {
  Result<CliOptions> options = ParseCliArgs({"--help"});
  ASSERT_TRUE(options.ok());
  EXPECT_TRUE(options->show_help);
  EXPECT_FALSE(CliUsage().empty());
}

TEST(CliParseTest, UnknownFlagFails) {
  EXPECT_FALSE(ParseCliArgs({"--bogus=1"}).ok());
}

TEST(CliParseTest, AllOptionalFlags) {
  Result<CliOptions> options = ParseCliArgs(
      {"--data=d", "--base=b", "--target=t", "--task=classification",
       "--selector=f_test", "--plan=full", "--soft-join=nearest",
       "--output=out.csv", "--seed=99"});
  ASSERT_TRUE(options.ok());
  EXPECT_EQ(options->run.task, "classification");
  EXPECT_EQ(options->run.selector, "f_test");
  EXPECT_EQ(options->run.plan, "full");
  EXPECT_EQ(options->run.soft_join, "nearest");
  EXPECT_EQ(options->output, "out.csv");
  EXPECT_EQ(options->run.seed, 99u);
}

TEST(CliParseTest, BadValuesFail) {
  EXPECT_FALSE(ParseCliArgs({"--data=d", "--base=b", "--target=t",
                             "--task=clustering"})
                   .ok());
  EXPECT_FALSE(ParseCliArgs({"--data=d", "--base=b", "--target=t",
                             "--seed=abc"})
                   .ok());
}

TEST(CliConfigTest, TranslatesPlanAndSoftJoin) {
  CliOptions options;
  options.run.plan = "table";
  options.run.soft_join = "hard";
  options.run.selector = "mutual_info";
  options.run.seed = 5;
  Result<core::ArdaConfig> config = core::MakeArdaConfig(options.run);
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->plan, core::JoinPlanKind::kTableAtATime);
  EXPECT_EQ(config->join.soft_method, join::SoftJoinMethod::kHardExact);
  EXPECT_EQ(config->selector, "mutual_info");
  EXPECT_EQ(config->seed, 5u);
}

TEST(CliConfigTest, RejectsBadPlanAndSoftJoin) {
  CliOptions options;
  options.run.plan = "spiral";
  EXPECT_FALSE(core::MakeArdaConfig(options.run).ok());
  options.run.plan = "budget";
  options.run.soft_join = "psychic";
  EXPECT_FALSE(core::MakeArdaConfig(options.run).ok());
}

TEST(CliRunTest, EndToEndOverTempCsvDir) {
  fs::path dir = fs::path(testing::TempDir()) / "arda_cli_test";
  fs::create_directories(dir);
  Rng rng(3);
  std::string base_csv = "id,x,y\n";
  std::string lookup_csv = "id,hidden\n";
  for (int i = 0; i < 150; ++i) {
    double hidden = rng.Normal();
    double x = rng.Normal();
    base_csv += StrFormat("%d,%.6f,%.6f\n", i, x,
                          x + 3.0 * hidden + rng.Normal(0.0, 0.1));
    lookup_csv += StrFormat("%d,%.6f\n", i, hidden);
  }
  {
    std::ofstream f(dir / "sales.csv");
    f << base_csv;
  }
  {
    std::ofstream f(dir / "lookup.csv");
    f << lookup_csv;
  }

  CliOptions options;
  options.data_dir = dir.string();
  options.base_table = "sales";
  options.target = "y";
  options.output = (dir / "augmented.csv").string();
  Status status = RunCli(options);
  EXPECT_TRUE(status.ok()) << status.ToString();

  Result<df::DataFrame> augmented =
      df::ReadCsvFile((dir / "augmented.csv").string());
  ASSERT_TRUE(augmented.ok());
  EXPECT_TRUE(augmented->HasColumn("hidden"));
  fs::remove_all(dir);
}

TEST(CliRunTest, MissingDirectoryFails) {
  CliOptions options;
  options.data_dir = "/nonexistent/arda";
  options.base_table = "x";
  options.target = "y";
  EXPECT_FALSE(RunCli(options).ok());
}

TEST(CliRunTest, MissingBaseTableFails) {
  fs::path dir = fs::path(testing::TempDir()) / "arda_cli_empty";
  fs::create_directories(dir);
  CliOptions options;
  options.data_dir = dir.string();
  options.base_table = "ghost";
  options.target = "y";
  EXPECT_FALSE(RunCli(options).ok());
  fs::remove_all(dir);
}

}  // namespace
}  // namespace arda::tools
