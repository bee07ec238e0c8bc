#include <cstdio>
#include <fstream>
#include <sstream>
#include <filesystem>

#include "config/lhs_sampler.h"
#include "data/dataset_io.h"
#include "gtest/gtest.h"
#include "plan/serialize.h"
#include "util/fault_injection.h"
#include "util/status.h"
#include "simdb/workload_runner.h"
#include "simdb/workloads.h"

namespace qpe::data {
namespace {

std::vector<simdb::ExecutedQuery> SmallDataset() {
  const simdb::TpchWorkload tpch(0.05);
  config::LhsSampler sampler((util::Rng(1)));
  simdb::RunOptions options;
  return simdb::RunWorkloadTemplates(tpch, {0, 2}, sampler.Sample(3), options);
}

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(DatasetIoTest, RoundTripPreservesEverything) {
  const auto original = SmallDataset();
  const std::string path = TempPath("qpe_dataset_io_test.txt");
  ASSERT_TRUE(SaveExecutedQueriesStatus(original, path).ok());
  const auto checked = LoadExecutedQueriesChecked(path);
  ASSERT_TRUE(checked.ok()) << checked.status().ToString();
  const std::vector<simdb::ExecutedQuery>& loaded = *checked;
  ASSERT_EQ(loaded.size(), original.size());
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_DOUBLE_EQ(loaded[i].latency_ms, original[i].latency_ms);
    EXPECT_EQ(loaded[i].template_index, original[i].template_index);
    EXPECT_EQ(loaded[i].instance_index, original[i].instance_index);
    EXPECT_EQ(loaded[i].query.NumNodes(), original[i].query.NumNodes());
    EXPECT_EQ(loaded[i].query.benchmark, original[i].query.benchmark);
    for (int k = 0; k < config::kNumKnobs; ++k) {
      EXPECT_NEAR(loaded[i].db_config.Get(static_cast<config::Knob>(k)),
                  original[i].db_config.Get(static_cast<config::Knob>(k)),
                  std::abs(original[i].db_config.Get(
                      static_cast<config::Knob>(k))) * 1e-5);
    }
    // Actual properties survive (the encoders need them).
    EXPECT_NEAR(loaded[i].query.root->props().actual_total_time_ms,
                original[i].query.root->props().actual_total_time_ms, 1e-3);
  }
  std::remove(path.c_str());
}

TEST(DatasetIoTest, MissingFileFails) {
  const auto loaded = LoadExecutedQueriesChecked("/no/such/qpe_file.txt");
  EXPECT_FALSE(loaded.ok());
}

TEST(DatasetIoTest, MalformedLineRejected) {
  const std::string path = TempPath("qpe_dataset_io_bad.txt");
  {
    std::ofstream os(path);
    os << "(record :latency banana)\n";
  }
  const auto loaded = LoadExecutedQueriesChecked(path);
  EXPECT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

TEST(DatasetIoTest, EmptyFileIsOkAndEmpty) {
  const std::string path = TempPath("qpe_dataset_io_empty.txt");
  { std::ofstream os(path); }
  const auto loaded = LoadExecutedQueriesChecked(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->empty());
  std::remove(path.c_str());
}

// --- Checked loader diagnostics (line numbers + reason) -------------------

TEST(DatasetIoCheckedTest, ReportsLineNumberOfFirstMalformedRecord) {
  const auto dataset = SmallDataset();
  const std::string path = TempPath("qpe_dataset_io_lineno.txt");
  ASSERT_TRUE(SaveExecutedQueriesStatus(dataset, path).ok());
  {
    std::ofstream os(path, std::ios::app);
    os << "this is not a record\n";
  }
  const auto loaded = LoadExecutedQueriesChecked(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kDataLoss);
  const std::string expected =
      "line " + std::to_string(dataset.size() + 1);
  EXPECT_NE(loaded.status().message().find(expected), std::string::npos)
      << loaded.status().ToString();
  std::remove(path.c_str());
}

TEST(DatasetIoCheckedTest, ReportsMissingTokenReason) {
  const std::string path = TempPath("qpe_dataset_io_token.txt");
  {
    std::ofstream os(path);
    os << "(record :latency 1.5 :instance 0)\n";
  }
  const auto loaded = LoadExecutedQueriesChecked(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("line 1"), std::string::npos);
  EXPECT_NE(loaded.status().message().find(":template"), std::string::npos)
      << loaded.status().ToString();
  std::remove(path.c_str());
}

TEST(DatasetIoCheckedTest, ForwardsPlanParseDiagnostics) {
  const auto dataset = SmallDataset();
  const std::string path = TempPath("qpe_dataset_io_plan.txt");
  ASSERT_TRUE(SaveExecutedQueriesStatus(dataset, path).ok());
  // Corrupt the plan section of the saved record: the loader must forward
  // the plan parser's reason and offset, prefixed with the line number.
  std::ifstream is(path);
  std::string line;
  std::getline(is, line);
  is.close();
  const size_t op = line.find("(op ");
  ASSERT_NE(op, std::string::npos);
  line.replace(op, 4, "(xx ");
  {
    std::ofstream os(path);
    os << line << "\n";
  }
  const auto loaded = LoadExecutedQueriesChecked(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("line 1"), std::string::npos);
  EXPECT_NE(loaded.status().message().find("at offset"), std::string::npos)
      << loaded.status().ToString();
  std::remove(path.c_str());
}

TEST(DatasetIoCheckedTest, MissingFileIsNotFound) {
  const auto loaded = LoadExecutedQueriesChecked("/no/such/qpe_file.txt");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kNotFound);
}

TEST(DatasetIoCheckedTest, SaveFaultInjectionFailsWithIoStatus) {
  const auto dataset = SmallDataset();
  const std::string path = TempPath("qpe_dataset_io_fault.txt");
  util::ScopedFaultInjection guard("dataset.save.open", 1);
  const util::Status s = SaveExecutedQueriesStatus(dataset, path);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), util::StatusCode::kIo);
  EXPECT_NE(s.message().find("injected fault"), std::string::npos)
      << s.ToString();
}

// workload_explorer --checkpoint-dir reloads its executed-query dataset on
// --resume, so a save that dies part-way must leave the previous dataset
// whole: a torn file cut on a record boundary would load without error and
// silently resume with fewer records.
TEST(DatasetIoCheckedTest, FailedSaveKeepsThePreviousDataset) {
  const auto dataset_a = SmallDataset();
  std::vector<simdb::ExecutedQuery> dataset_b;
  for (size_t i = 0; i + 1 < dataset_a.size(); ++i) {
    simdb::ExecutedQuery record = dataset_a[i].Clone();
    record.latency_ms += 1.0;
    dataset_b.push_back(std::move(record));
  }
  const std::string path = TempPath("qpe_dataset_io_atomic.txt");
  ASSERT_TRUE(SaveExecutedQueriesStatus(dataset_a, path).ok());
  for (const char* site : {"dataset.save.write", "dataset.save.rename"}) {
    SCOPED_TRACE(site);
    {
      util::ScopedFaultInjection guard(site, 1);
      const util::Status s = SaveExecutedQueriesStatus(dataset_b, path);
      ASSERT_FALSE(s.ok());
      EXPECT_EQ(s.code(), util::StatusCode::kIo) << s.ToString();
    }
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"))
        << "leaked temp file";
    const auto loaded = LoadExecutedQueriesChecked(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ASSERT_EQ(loaded->size(), dataset_a.size());
    for (size_t i = 0; i < dataset_a.size(); ++i) {
      EXPECT_EQ((*loaded)[i].latency_ms, dataset_a[i].latency_ms);
      EXPECT_EQ((*loaded)[i].template_index, dataset_a[i].template_index);
      EXPECT_EQ((*loaded)[i].instance_index, dataset_a[i].instance_index);
      EXPECT_EQ(plan::SerializePlan((*loaded)[i].query),
                plan::SerializePlan(dataset_a[i].query));
    }
  }
  std::remove(path.c_str());
}

TEST(ParsePlanCheckedTest, UnknownPropertyNamesOffset) {
  const auto parsed =
      plan::ParsePlanChecked("(plan :cluster 0 (op \"Sort\" :bogus 1))");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), util::StatusCode::kDataLoss);
  EXPECT_NE(parsed.status().message().find("unknown property 'bogus'"),
            std::string::npos)
      << parsed.status().ToString();
  EXPECT_NE(parsed.status().message().find("at offset"), std::string::npos);
}

TEST(ParsePlanCheckedTest, UnterminatedPlanRejected) {
  const auto parsed =
      plan::ParsePlanChecked("(plan :cluster 0 (op \"Sort\")");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("unterminated"), std::string::npos)
      << parsed.status().ToString();
}

}  // namespace
}  // namespace qpe::data
