// Tests for hardened input handling: the CSV reader helpers reject
// hostile lines and non-finite numbers with line-numbered ContractErrors,
// and workload::load_trace refuses every file in the malformed-trace
// corpus under tests/data/ while still round-tripping valid traces.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <fstream>
#include <istream>
#include <sstream>
#include <streambuf>
#include <string>

#include "core/problem.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "workload/scenario.hpp"
#include "workload/trace.hpp"

namespace amf {
namespace {

std::string data_path(const std::string& name) {
  return std::string(AMF_TEST_DATA_DIR) + "/" + name;
}

/// Runs `fn` and returns the ContractError message it must throw.
template <typename Fn>
std::string contract_message(Fn&& fn) {
  try {
    fn();
  } catch (const util::ContractError& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected ContractError";
  return {};
}

// ---------------------------------------------------------------------------
// CSV reader helpers

TEST(CsvReader, ParsesPlainAndScientificDoubles) {
  EXPECT_DOUBLE_EQ(util::parse_csv_double("1.5", 1), 1.5);
  EXPECT_DOUBLE_EQ(util::parse_csv_double("-2", 1), -2.0);
  EXPECT_DOUBLE_EQ(util::parse_csv_double("3e2", 1), 300.0);
  EXPECT_DOUBLE_EQ(util::parse_csv_double("0", 1), 0.0);
}

TEST(CsvReader, RejectsMalformedCellsWithTheLineNumber) {
  for (const char* bad : {"", "abc", "1.5x", "nan", "inf", "-inf", "1e999",
                          "--3", "4,"}) {
    auto msg = contract_message(
        [&] { util::parse_csv_double(bad, 7); });
    EXPECT_NE(msg.find("line 7"), std::string::npos) << "cell: " << bad;
  }
}

TEST(CsvReader, SplitsRowsAndFlagsTheBadCell) {
  auto row = util::parse_csv_doubles("1,2.5,-3e1", 1);
  ASSERT_EQ(row.size(), 3u);
  EXPECT_DOUBLE_EQ(row[1], 2.5);
  EXPECT_DOUBLE_EQ(row[2], -30.0);
  EXPECT_THROW(util::parse_csv_doubles("1,,3", 4), util::ContractError);
  EXPECT_THROW(util::parse_csv_doubles("1,oops,3", 4), util::ContractError);
}

TEST(CsvReader, ReadsLinesStripsCrAndReportsEof) {
  std::istringstream in("a,b\r\nc,d\n");
  std::string line;
  EXPECT_TRUE(util::read_csv_line(in, line, 1));
  EXPECT_EQ(line, "a,b");
  EXPECT_TRUE(util::read_csv_line(in, line, 2));
  EXPECT_EQ(line, "c,d");
  EXPECT_FALSE(util::read_csv_line(in, line, 3));
}

TEST(CsvReader, RejectsOverlongLines) {
  // One byte past the cap: the reader must throw before any caller tries
  // to parse (or allocate proportionally to) the monster line.
  std::string monster(util::kMaxCsvLineLength + 1, '1');
  std::istringstream in(monster + "\n");
  std::string line;
  auto msg =
      contract_message([&] { util::read_csv_line(in, line, 3); });
  EXPECT_NE(msg.find("line 3"), std::string::npos);
}

/// One line of `length` '1' bytes and a newline, produced on demand in
/// 4 KiB blocks; consumed() counts the bytes a reader has taken.
class LongLineBuf final : public std::streambuf {
 public:
  explicit LongLineBuf(std::size_t length) : left_(length) {}
  std::size_t consumed() const {
    return produced_ - static_cast<std::size_t>(egptr() - gptr());
  }

 protected:
  int_type underflow() override {
    if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
    if (newline_sent_) return traits_type::eof();
    std::size_t n = std::min(left_, block_.size());
    if (n == 0) {
      block_[0] = '\n';
      n = 1;
      newline_sent_ = true;
    } else {
      std::fill_n(block_.begin(), n, '1');
      left_ -= n;
    }
    produced_ += n;
    setg(block_.data(), block_.data(), block_.data() + n);
    return traits_type::to_int_type(block_[0]);
  }

 private:
  std::array<char, 4096> block_{};
  std::size_t left_;
  std::size_t produced_ = 0;
  bool newline_sent_ = false;
};

TEST(CsvReader, RejectsAnOverlongLineAfterBoundedRead) {
  // A 4 MiB line: the reader must give up once it holds one byte past the
  // cap, not buffer the whole line first.
  LongLineBuf buf(std::size_t{4} << 20);
  std::istream in(&buf);
  std::string line;
  auto msg = contract_message([&] { util::read_csv_line(in, line, 2); });
  EXPECT_NE(msg.find("CSV line exceeds"), std::string::npos) << msg;
  EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
  EXPECT_LE(buf.consumed(), util::kMaxCsvLineLength + 2);
}

TEST(CsvReader, AcceptsALineOfExactlyTheCap) {
  const std::string at_cap(util::kMaxCsvLineLength, '7');
  std::istringstream in(at_cap + "\nx,y");
  std::string line;
  EXPECT_TRUE(util::read_csv_line(in, line, 1));
  EXPECT_EQ(line, at_cap);
  EXPECT_TRUE(util::read_csv_line(in, line, 2));
  EXPECT_EQ(line, "x,y");
  EXPECT_FALSE(util::read_csv_line(in, line, 3));
}

// ---------------------------------------------------------------------------
// malformed-trace corpus

TEST(TraceHardening, GoodMinimalLoads) {
  std::ifstream in(data_path("good_minimal.csv"));
  ASSERT_TRUE(in.is_open());
  auto trace = workload::load_trace(in);
  EXPECT_EQ(trace.jobs.size(), 2u);
  EXPECT_EQ(trace.capacities.size(), 2u);
  EXPECT_EQ(trace.events.size(), 1u);
  EXPECT_EQ(trace.events[0].kind, workload::SiteEventKind::kDegrade);
}

TEST(TraceHardening, EveryCorpusFileIsRejectedWithALineNumber) {
  const char* corpus[] = {
      "bad_nan_capacity.csv",     "bad_inf_workload.csv",
      "bad_negative_demand.csv",  "bad_negative_capacity.csv",
      "bad_fractional_header.csv", "bad_negative_header.csv",
      "bad_garbage_cell.csv",     "bad_truncated.csv",
      "bad_event_site.csv",       "bad_event_kind.csv",
      "bad_event_factor.csv",     "bad_negative_weight.csv",
  };
  for (const char* name : corpus) {
    std::ifstream in(data_path(name));
    ASSERT_TRUE(in.is_open()) << name;
    auto msg = contract_message([&] { workload::load_trace(in); });
    EXPECT_NE(msg.find("line"), std::string::npos) << name << ": " << msg;
  }
}

TEST(TraceHardening, ErrorNamesTheOffendingLine) {
  std::ifstream in(data_path("bad_negative_demand.csv"));
  ASSERT_TRUE(in.is_open());
  auto msg = contract_message([&] { workload::load_trace(in); });
  EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
}

TEST(TraceHardening, GeneratedTracesStillRoundTrip) {
  auto cfg = workload::paper_default(1.0, 5);
  cfg.sites = 4;
  cfg.sites_per_job_max = 4;
  workload::Generator generator(cfg);
  auto trace = workload::generate_trace(generator, 0.8, 20);
  std::stringstream buffer;
  workload::save_trace(trace, buffer);
  auto loaded = workload::load_trace(buffer);
  ASSERT_EQ(loaded.jobs.size(), trace.jobs.size());
  ASSERT_EQ(loaded.capacities.size(), trace.capacities.size());
  for (std::size_t j = 0; j < trace.jobs.size(); ++j) {
    // save_trace prints %.12g — round-trips to 1e-11 relative, not bit-
    // exact.
    EXPECT_NEAR(loaded.jobs[j].arrival, trace.jobs[j].arrival,
                1e-9 * (1.0 + trace.jobs[j].arrival));
    EXPECT_EQ(loaded.jobs[j].demands.size(), trace.jobs[j].demands.size());
  }
}

// ---------------------------------------------------------------------------
// problem CSV (AllocationProblem::load, the stdin of amf_solve)

std::string load_message(const std::string& text) {
  std::istringstream in(text);
  return contract_message([&] { core::AllocationProblem::load(in); });
}

TEST(ProblemLoadHardening, RejectsAFractionalJobCount) {
  // Cast to size_t, 1.5 jobs would load as one job.
  EXPECT_NE(load_message("1.5,1,0\n2\n3\n1\n").find("line 1"),
            std::string::npos);
}

TEST(ProblemLoadHardening, RejectsANegativeJobCount) {
  // A negative double cast to size_t is undefined behavior.
  EXPECT_NE(load_message("-3,2,0\n").find("line 1"), std::string::npos);
}

TEST(ProblemLoadHardening, RejectsANanJobCount) {
  EXPECT_NE(load_message("nan,2,0\n").find("line 1"), std::string::npos);
}

TEST(ProblemLoadHardening, RejectsAGarbageCellAsAContractError) {
  EXPECT_NE(load_message("x,2,0\n").find("line 1"), std::string::npos);
  EXPECT_NE(load_message("1,2,0\n1,oops\n").find("line 2"),
            std::string::npos);
}

TEST(ProblemLoadHardening, NeverSizesStorageFromTheHeader) {
  // Ten million jobs promised over a three-line file: the rows run out
  // and the file is reported truncated, with nothing reserved up front.
  const std::string msg = load_message("10000000,1,0\n1\n2\n");
  EXPECT_NE(msg.find("truncated"), std::string::npos) << msg;
  EXPECT_NE(msg.find("line 4"), std::string::npos) << msg;
}

TEST(ProblemLoadHardening, ValidFilesStillLoad) {
  std::istringstream in("2,2,1\n1,0\n0,3\n4,5\n2,0\n0,1\n1,2\n");
  const auto p = core::AllocationProblem::load(in);
  EXPECT_EQ(p.jobs(), 2);
  EXPECT_EQ(p.demand(1, 1), 3.0);
  EXPECT_EQ(p.workload(0, 0), 2.0);
  EXPECT_EQ(p.weight(1), 2.0);
}

}  // namespace
}  // namespace amf
