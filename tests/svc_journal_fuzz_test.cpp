// svc_journal_fuzz_test.cpp — randomized journal-corruption replay
// (seeded, so every failure reproduces): truncate valid WALs at random
// byte offsets and flip random bits, then assert the scanner and the
// full recovery path never crash, never apply a torn record, and always
// recover an exact prefix of the pristine log — or refuse with a
// warning that names the byte offset.
#include <gtest/gtest.h>

#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "svc/journal.hpp"
#include "svc/server.hpp"
#include "svc/session.hpp"
#include "test_tmpdir.hpp"

namespace amf::svc {
namespace {

using test::fresh_dir;

/// A pristine WAL: one create record and `deltas` add_job deltas.
struct PristineLog {
  std::string bytes;                  ///< the full framed file contents
  std::vector<std::string> payloads;  ///< record payloads, in order
};

PristineLog build_log(int deltas) {
  PristineLog log;
  log.payloads.push_back(
      R"({"t":"create","session":"f","policy":"amf","batch_window_ms":0,)"
      R"("default_budget_ms":0,"capacities":[100,100]})");
  for (int i = 1; i <= deltas; ++i) {
    log.payloads.push_back(
        R"({"t":"delta","seq":)" + std::to_string(i) +
        R"(,"op":"add_job","job":)" + std::to_string(i - 1) +
        R"(,"demands":[)" + std::to_string(i) + R"(,1],"weight":1})");
  }
  for (const std::string& payload : log.payloads)
    log.bytes += Journal::frame(payload);
  return log;
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

/// The core invariant: scanning a mangled log yields an exact prefix of
/// the pristine payload sequence, and anything dropped is reported with
/// a byte offset — never a crash, never a mangled record passed through.
void check_prefix(const PristineLog& pristine, const std::string& path,
                  std::size_t file_size) {
  const JournalReplay replay = Journal::read_all(path);
  ASSERT_LE(replay.records.size(), pristine.payloads.size());
  for (std::size_t i = 0; i < replay.records.size(); ++i)
    ASSERT_EQ(replay.records[i].payload, pristine.payloads[i])
        << "record " << i << " is not the pristine record";
  if (file_size > replay.valid_bytes) {
    // Bytes were dropped: that MUST be reported, with the offset.
    EXPECT_TRUE(replay.truncated);
    EXPECT_NE(replay.warning.find("at byte"), std::string::npos)
        << "warning lacks a byte offset: " << replay.warning;
  } else {
    // A cut on a record boundary scans clean — fewer records, no tear.
    EXPECT_FALSE(replay.truncated) << replay.warning;
  }
  // valid_bytes must always frame exactly the surviving records.
  std::size_t expect_bytes = 0;
  for (std::size_t i = 0; i < replay.records.size(); ++i)
    expect_bytes += 8 + replay.records[i].payload.size();
  EXPECT_EQ(replay.valid_bytes, expect_bytes);
}

TEST(SvcJournalFuzz, TruncationAtEveryRandomOffsetRecoversAPrefix) {
  const std::string dir = fresh_dir("svc_fuzz_trunc");
  const std::string wal = dir + "/f.wal";
  const PristineLog pristine = build_log(12);
  std::mt19937 rng(2024);
  std::uniform_int_distribution<std::size_t> cut(0, pristine.bytes.size());
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t at = cut(rng);
    write_file(wal, pristine.bytes.substr(0, at));
    check_prefix(pristine, wal, at);
  }
}

TEST(SvcJournalFuzz, SingleBitFlipsNeverCrashAndNeverApplyATornRecord) {
  const std::string dir = fresh_dir("svc_fuzz_flip");
  const std::string wal = dir + "/f.wal";
  const PristineLog pristine = build_log(12);
  std::mt19937 rng(7);
  std::uniform_int_distribution<std::size_t> pos(0,
                                                 pristine.bytes.size() - 1);
  std::uniform_int_distribution<int> bit(0, 7);
  for (int trial = 0; trial < 200; ++trial) {
    std::string mangled = pristine.bytes;
    mangled[pos(rng)] ^= static_cast<char>(1 << bit(rng));
    write_file(wal, mangled);
    // Any single-bit flip lands inside some record's frame or payload
    // and breaks its CRC (or its framing), so the scan must stop at a
    // pristine prefix — pass-through of the flipped record would be a
    // CRC collision the format is designed to preclude.
    check_prefix(pristine, wal, mangled.size());
  }
}

TEST(SvcJournalFuzz, FullRecoveryPathServesFromEveryMangledLog) {
  // Beyond the scanner: the whole recover_from_journal() path (validate,
  // apply, truncate-and-warn) over randomized corruption. Fewer trials —
  // each one builds a server — but the same invariants: never a throw,
  // replayed deltas are a prefix, and a session only exists when its
  // birth record survived.
  const PristineLog pristine = build_log(10);
  std::mt19937 rng(99);
  std::uniform_int_distribution<std::size_t> pos(0,
                                                 pristine.bytes.size() - 1);
  std::uniform_int_distribution<int> bit(0, 7);
  std::uniform_int_distribution<int> mode(0, 1);
  for (int trial = 0; trial < 25; ++trial) {
    const std::string dir =
        fresh_dir("svc_fuzz_recover_" + std::to_string(trial));
    const std::string wal = dir + "/f.wal";
    std::string mangled = pristine.bytes;
    const std::size_t at = pos(rng);
    if (mode(rng) == 0)
      mangled = mangled.substr(0, at);  // torn tail
    else
      mangled[at] ^= static_cast<char>(1 << bit(rng));  // bit rot
    write_file(wal, mangled);
    // What a clean scan of the mangled file yields is exactly what
    // recovery may apply: a session only when the birth record survived,
    // and at most surviving-records-minus-birth deltas.
    const JournalReplay expect = Journal::read_all(wal);

    ServerConfig config;
    config.tcp_port = 0;
    config.journal_dir = dir;
    Server server(config);
    const long long warnings_before =
        SvcMetrics::get().journal_replay_warnings.value();
    RecoveryReport report;
    ASSERT_NO_THROW(report = server.recover_from_journal())
        << "trial " << trial;
    EXPECT_EQ(report.sessions, expect.records.empty() ? 0 : 1);
    ASSERT_LE(report.deltas,
              static_cast<long long>(
                  expect.records.empty() ? 0 : expect.records.size() - 1));
    // Each truncate-and-warn event is counted for operators (the
    // amf_svc_journal_replay_warnings counter).
    EXPECT_EQ(SvcMetrics::get().journal_replay_warnings.value(),
              warnings_before +
                  static_cast<long long>(report.warnings.size()));
    // The on-disk file was truncated to the applied prefix: a second
    // scan is clean and a second recovery agrees with the first.
    const JournalReplay rescan = Journal::read_all(wal);
    EXPECT_FALSE(rescan.truncated) << rescan.warning;
  }
}

TEST(SvcJournalFuzz, MidFileCorruptionStopsReplayBeforeTheBadRecord) {
  // A deterministic pin of the contract the fuzz loops rely on: flip one
  // byte in record 5's payload and the replay must serve exactly records
  // 0..4, truncating the file there.
  const std::string dir = fresh_dir("svc_fuzz_midfile");
  const std::string wal = dir + "/f.wal";
  const PristineLog pristine = build_log(8);
  std::size_t offset = 0;
  for (int i = 0; i < 5; ++i)
    offset += 8 + pristine.payloads[static_cast<std::size_t>(i)].size();
  std::string mangled = pristine.bytes;
  mangled[offset + 8 + 3] ^= 0x10;  // inside record 5's payload
  write_file(wal, mangled);

  const JournalReplay replay = Journal::read_all(wal);
  EXPECT_TRUE(replay.truncated);
  EXPECT_EQ(replay.records.size(), 5u);
  EXPECT_EQ(replay.valid_bytes, offset);

  ServerConfig config;
  config.tcp_port = 0;
  config.journal_dir = dir;
  Server server(config);
  const RecoveryReport report = server.recover_from_journal();
  EXPECT_EQ(report.sessions, 1);
  EXPECT_EQ(report.deltas, 4);  // create + 4 deltas survived
  ASSERT_EQ(report.warnings.size(), 1u);
  EXPECT_NE(report.warnings[0].find("at byte"), std::string::npos)
      << report.warnings[0];
}

}  // namespace
}  // namespace amf::svc
