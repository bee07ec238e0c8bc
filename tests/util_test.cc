#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <vector>

#include "gtest/gtest.h"
#include "util/bytes.h"
#include "util/checksum.h"
#include "util/durable_file.h"
#include "util/fault_injection.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table_printer.h"

namespace qpe::util {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformRangeRespected) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(RngTest, UniformMeanApproximatelyHalf) {
  Rng rng(11);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.Uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(3);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(2, 5);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 5);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);  // all values hit
}

TEST(RngTest, NormalMoments) {
  Rng rng(5);
  const int n = 200000;
  double sum = 0, ss = 0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal();
    sum += x;
    ss += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(ss / n, 1.0, 0.03);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(13);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, BernoulliFillMatchesPerCallLoop) {
  // The bulk draw must reproduce Bernoulli's outcomes and leave the
  // generator in the same state, including when only a prefix is kept.
  for (const double p : {0.1, 0.5, 1.0}) {
    for (const size_t kept : {size_t{0}, size_t{37}, size_t{1000}}) {
      const size_t count = 1000;
      Rng bulk(29), loop(29);
      std::vector<float> got(count, -1.0f), want(count, -1.0f);
      bulk.BernoulliFill(p, 0.0f, 2.5f, got.data(), kept, count);
      for (size_t i = 0; i < count; ++i) {
        const float m = loop.Bernoulli(p) ? 0.0f : 2.5f;
        if (i < kept) want[i] = m;
      }
      EXPECT_EQ(got, want) << "p " << p << " kept " << kept;
      const RngState a = bulk.GetState(), b = loop.GetState();
      for (int i = 0; i < 4; ++i) EXPECT_EQ(a.s[i], b.s[i]) << "p " << p;
    }
  }
}

TEST(RngTest, PermutationIsPermutation) {
  Rng rng(23);
  const std::vector<int> p = rng.Permutation(50);
  std::set<int> seen(p.begin(), p.end());
  EXPECT_EQ(seen.size(), 50u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 49);
}

TEST(RngTest, ForkIndependentButDeterministic) {
  Rng a(42), b(42);
  Rng fa = a.Fork();
  Rng fb = b.Fork();
  EXPECT_EQ(fa.NextU64(), fb.NextU64());
}

// splitmix64's published first output for seed 0, and bits recorded before
// the library's copies were merged into Mix64: Rng streams, drift sketch
// probes and retry jitter all depend on them.
TEST(RngTest, SplitMixBitsArePinned) {
  EXPECT_EQ(Mix64(0), 0xE220A8397B1DCDAFULL);
  EXPECT_EQ(Mix64(12345), 0x22118258A9D111A0ULL);
  EXPECT_EQ(Mix64Finalize(12345 + kSplitMixGamma), Mix64(12345));
  Rng rng(2021);
  EXPECT_EQ(rng.NextU64(), 0xF61612C2FF4D9BC1ULL);
  EXPECT_EQ(rng.NextU64(), 0x584F61AB0B9A78B4ULL);
}

TEST(StatsTest, MeanMedian) {
  EXPECT_DOUBLE_EQ(Mean({1, 2, 3, 4}), 2.5);
  EXPECT_DOUBLE_EQ(Median({5, 1, 3}), 3.0);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
}

TEST(StatsTest, PercentileInterpolation) {
  std::vector<double> v = {10, 20, 30, 40, 50};
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 10.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 50.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 30.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 25), 20.0);
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter table({"name", "value"});
  table.AddRow({"a", "1"});
  table.AddRow({"longer_name", "22"});
  std::ostringstream oss;
  table.Print(oss);
  const std::string out = oss.str();
  EXPECT_NE(out.find("| name        | value |"), std::string::npos);
  EXPECT_NE(out.find("| longer_name | 22    |"), std::string::npos);
}

TEST(TablePrinterTest, NumFormatsPrecision) {
  EXPECT_EQ(TablePrinter::Num(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::Num(2.0, 0), "2");
}

// --- Durable files -----------------------------------------------------------

constexpr uint32_t kTestMagic = 0x54535451;  // "QTST"
constexpr uint32_t kTestVersion = 3;

std::string DurablePath(const char* tag) {
  return testing::TempDir() + "qpe_durable_" + tag + "_" +
         std::to_string(::getpid());
}

std::string ReadAll(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

void Plant(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

StatusOr<std::string> ReadTestFile(const std::string& path) {
  return ReadFramedFile(path, kTestMagic, kTestVersion, "test file",
                        "test_file");
}

TEST(DurableFileTest, FramedFileIsHeaderThenPayload) {
  const std::string path = DurablePath("roundtrip");
  const std::string payload("framed\0payload bytes", 21);
  ASSERT_TRUE(WriteFramedFileAtomic(path, kTestMagic, kTestVersion, payload,
                                    "test_file")
                  .ok());
  EXPECT_TRUE(FileExists(path));
  EXPECT_FALSE(FileExists(path + ".tmp"));
  std::string header;
  PutU32(&header, kTestMagic);
  PutU32(&header, kTestVersion);
  PutU64(&header, payload.size());
  PutU32(&header, Crc32(payload));
  EXPECT_EQ(ReadAll(path), header + payload);
  const StatusOr<std::string> read = ReadTestFile(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, payload);
  std::remove(path.c_str());
}

// One corruption matrix for every framed artifact (checkpoints, warm
// snapshots, adaptation slices and manifests): each damage maps to one
// status code, and every message names the artifact and its path.
TEST(DurableFileTest, CorruptionMatrixHasOneErrorContract) {
  const std::string path = DurablePath("matrix");
  const std::string payload(257, 'p');
  ASSERT_TRUE(WriteFramedFileAtomic(path, kTestMagic, kTestVersion, payload,
                                    "test_file")
                  .ok());
  const std::string bytes = ReadAll(path);
  ASSERT_EQ(bytes.size(), kFramedHeaderSize + payload.size());

  std::string crc_flip = bytes;
  crc_flip[kFramedHeaderSize + payload.size() / 2] ^= 0x10;
  std::string version_skew = bytes;
  version_skew[4] = 99;  // u32 version at offset 4; the CRC covers the payload
  std::string bad_magic = bytes;
  bad_magic[0] ^= 0xFF;
  struct Case {
    const char* name;
    std::string bytes;
    StatusCode code;
    const char* substring;
  };
  const Case cases[] = {
      {"zero_length", "", StatusCode::kDataLoss, "header"},
      {"mid_header", bytes.substr(0, 10), StatusCode::kDataLoss, "header"},
      {"size_mismatch", bytes.substr(0, bytes.size() - 7),
       StatusCode::kDataLoss, "payload"},
      {"crc_flip", crc_flip, StatusCode::kDataLoss, "CRC mismatch"},
      {"version_skew", version_skew, StatusCode::kFailedPrecondition,
       "format version"},
      {"bad_magic", bad_magic, StatusCode::kDataLoss, "bad magic"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    Plant(path, c.bytes);
    const StatusOr<std::string> read = ReadTestFile(path);
    ASSERT_FALSE(read.ok());
    const Status& s = read.status();
    EXPECT_EQ(s.code(), c.code) << s.ToString();
    EXPECT_NE(s.message().find(c.substring), std::string::npos)
        << s.ToString();
    EXPECT_NE(s.message().find("test file '" + path + "'"), std::string::npos)
        << s.ToString();
  }
  std::remove(path.c_str());
  EXPECT_EQ(ReadTestFile(path).status().code(), StatusCode::kNotFound);
}

TEST(DurableFileTest, EveryWriteFaultKeepsThePreviousFile) {
  const std::string path = DurablePath("write_faults");
  ASSERT_TRUE(WriteFileAtomic(path, "previous contents", "test_file").ok());
  for (const char* site : {"test_file.open_tmp", "test_file.write",
                           "test_file.flush", "test_file.rename"}) {
    SCOPED_TRACE(site);
    ScopedFaultInjection guard(site, 1);
    const Status s = WriteFileAtomic(path, "replacement", "test_file");
    EXPECT_EQ(s.code(), StatusCode::kIo) << s.ToString();
    EXPECT_NE(s.message().find(site), std::string::npos) << s.ToString();
    EXPECT_EQ(ReadAll(path), "previous contents");
    EXPECT_FALSE(FileExists(path + ".tmp")) << "leaked temp file";
  }
  ASSERT_TRUE(WriteFileAtomic(path, "replacement", "test_file").ok());
  EXPECT_EQ(ReadAll(path), "replacement");
  std::remove(path.c_str());
}

TEST(DurableFileTest, ReadFaultSitesFire) {
  const std::string path = DurablePath("read_faults");
  ASSERT_TRUE(WriteFramedFileAtomic(path, kTestMagic, kTestVersion, "x",
                                    "test_file")
                  .ok());
  // "test_file.read" matches "test_file.read.open" first, then itself.
  for (const int nth : {1, 2}) {
    ScopedFaultInjection guard("test_file.read", nth);
    const StatusOr<std::string> read = ReadTestFile(path);
    ASSERT_FALSE(read.ok()) << "nth " << nth;
    EXPECT_NE(read.status().message().find(nth == 1 ? "test_file.read.open"
                                                    : "test_file.read'"),
              std::string::npos)
        << read.status().ToString();
  }
  std::remove(path.c_str());
}

TEST(PayloadReaderTest, TruncationNamesFieldAndOffset) {
  std::string payload;
  PutU32(&payload, 7);
  PutString(&payload, "abc");
  payload.append("xy");
  PayloadReader reader(payload, "test");
  uint32_t count = 0;
  std::string text;
  ASSERT_TRUE(reader.U32(&count, "count").ok());
  ASSERT_TRUE(reader.Str(&text, "text").ok());
  EXPECT_EQ(count, 7u);
  EXPECT_EQ(text, "abc");
  EXPECT_EQ(reader.Finish("text").code(), StatusCode::kDataLoss);
  uint64_t tail = 0;
  const Status s = reader.U64(&tail, "tail field");
  EXPECT_EQ(s.code(), StatusCode::kDataLoss);
  EXPECT_EQ(s.message(),
            "test payload truncated reading tail field at offset 11 "
            "(need 8 byte(s), have 2)");
}

TEST(PayloadReaderTest, ViewIsZeroCopyAndBoundsChecked) {
  std::string payload;
  PutU16(&payload, 0xBEEF);
  PutU8(&payload, 7);
  payload.append("abc");
  PayloadReader reader(payload, "test");
  uint16_t u16 = 0;
  uint8_t u8 = 0;
  std::string_view view;
  ASSERT_TRUE(reader.U16(&u16, "u16").ok());
  ASSERT_TRUE(reader.U8(&u8, "u8").ok());
  ASSERT_TRUE(reader.View(&view, 2, "view").ok());
  EXPECT_EQ(u16, 0xBEEF);
  EXPECT_EQ(u8, 7);
  EXPECT_EQ(view, "ab");
  EXPECT_EQ(view.data(), payload.data() + 3);  // points into the payload
  const Status s = reader.View(&view, 0xFFFFFFF0u, "hostile");
  EXPECT_EQ(s.code(), StatusCode::kDataLoss);
  EXPECT_EQ(s.message(),
            "test payload truncated reading hostile at offset 5 "
            "(need 4294967280 byte(s), have 1)");
  EXPECT_EQ(reader.pos(), 5u);  // a failed read consumes nothing
}

}  // namespace
}  // namespace qpe::util
