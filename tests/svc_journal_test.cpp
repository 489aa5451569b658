// svc_journal_test.cpp — write-ahead journal: CRC framing, torn and
// corrupt tails, compaction atomics, session-level journaling and rid
// dedup, and the hardened --restore error paths.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "svc/journal.hpp"
#include "svc/server.hpp"
#include "svc/session.hpp"
#include "svc_test_executor.hpp"
#include "test_tmpdir.hpp"
#include "util/error.hpp"

namespace amf::svc {
namespace {

using test::fresh_path;

void append_raw(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::vector<std::string> payloads_of(const JournalReplay& replay) {
  std::vector<std::string> out;
  for (const JournalRecord& record : replay.records)
    out.push_back(record.payload);
  return out;
}

// ---------------------------------------------------------------------
// Framing and scan

TEST(SvcJournal, AppendsRoundTripThroughReadAll) {
  const std::string path = fresh_path("journal_roundtrip.wal");
  {
    Journal journal(path, FsyncPolicy::kAlways);
    journal.append(R"({"t":"create","capacities":[1,2]})");
    journal.append(R"({"t":"delta","seq":1})");
    journal.append(R"({"t":"delta","seq":2})");
    EXPECT_EQ(journal.appends_since_compact(), 3);
  }
  const JournalReplay replay = Journal::read_all(path);
  EXPECT_FALSE(replay.truncated);
  ASSERT_EQ(replay.records.size(), 3u);
  EXPECT_EQ(replay.records[1].payload, R"({"t":"delta","seq":1})");
  ASSERT_EQ(replay.offsets.size(), 3u);
  EXPECT_EQ(replay.offsets[0], 0u);
  // valid_bytes covers the whole file when nothing is torn.
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  EXPECT_EQ(replay.valid_bytes, static_cast<std::size_t>(in.tellg()));
}

TEST(SvcJournal, MissingAndEmptyFilesAreValidEmptyReplays) {
  const std::string missing = fresh_path("journal_missing.wal");
  JournalReplay replay = Journal::read_all(missing);
  EXPECT_TRUE(replay.records.empty());
  EXPECT_FALSE(replay.truncated);

  const std::string empty = fresh_path("journal_empty.wal");
  append_raw(empty, "");
  replay = Journal::read_all(empty);
  EXPECT_TRUE(replay.records.empty());
  EXPECT_FALSE(replay.truncated);
  EXPECT_EQ(replay.valid_bytes, 0u);
}

TEST(SvcJournal, TornFinalRecordIsTruncatedNotFatal) {
  const std::string path = fresh_path("journal_torn.wal");
  {
    Journal journal(path, FsyncPolicy::kOff);
    journal.append("first");
    journal.append("second");
  }
  // A crash mid-write leaves a prefix of the framed record on disk.
  const std::string framed = Journal::frame("third-but-torn");
  append_raw(path, framed.substr(0, framed.size() - 3));

  JournalReplay replay = Journal::read_all(path);
  EXPECT_TRUE(replay.truncated);
  EXPECT_NE(replay.warning.find("torn"), std::string::npos) << replay.warning;
  EXPECT_EQ(payloads_of(replay),
            (std::vector<std::string>{"first", "second"}));

  // The recovery protocol: truncate to the valid prefix, then the log
  // scans clean and stays appendable.
  Journal::truncate_to(path, replay.valid_bytes);
  replay = Journal::read_all(path);
  EXPECT_FALSE(replay.truncated);
  EXPECT_EQ(replay.records.size(), 2u);
  Journal journal(path, FsyncPolicy::kOff);
  journal.append("third-for-real");
  EXPECT_EQ(Journal::read_all(path).records.size(), 3u);
}

TEST(SvcJournal, TornHeaderIsTruncated) {
  const std::string path = fresh_path("journal_torn_header.wal");
  {
    Journal journal(path, FsyncPolicy::kOff);
    journal.append("only");
  }
  append_raw(path, "\x05\x00");  // 2 of the 8 header bytes
  const JournalReplay replay = Journal::read_all(path);
  EXPECT_TRUE(replay.truncated);
  EXPECT_EQ(replay.records.size(), 1u);
}

TEST(SvcJournal, CrcMismatchMidFileDropsEverythingAfter) {
  const std::string path = fresh_path("journal_crc.wal");
  std::string corrupt = Journal::frame("second");
  corrupt[corrupt.size() - 1] ^= 0x01;  // flip a payload bit
  append_raw(path, Journal::frame("first") + corrupt +
                       Journal::frame("third-looks-fine"));

  const JournalReplay replay = Journal::read_all(path);
  EXPECT_TRUE(replay.truncated);
  EXPECT_NE(replay.warning.find("checksum"), std::string::npos)
      << replay.warning;
  // Frame boundaries after a bad record are guesses: the valid third
  // record is dropped too, by design.
  EXPECT_EQ(payloads_of(replay), (std::vector<std::string>{"first"}));
  EXPECT_EQ(replay.valid_bytes, Journal::frame("first").size());
}

TEST(SvcJournal, ImplausibleLengthIsRejected) {
  const std::string path = fresh_path("journal_length.wal");
  // length field far beyond the protocol line bound.
  append_raw(path, std::string("\xff\xff\xff\x7f\x00\x00\x00\x00", 8));
  const JournalReplay replay = Journal::read_all(path);
  EXPECT_TRUE(replay.truncated);
  EXPECT_NE(replay.warning.find("implausible"), std::string::npos);
  EXPECT_TRUE(replay.records.empty());
  EXPECT_EQ(replay.valid_bytes, 0u);
}

TEST(SvcJournal, CompactionReplacesLogAtomicallyAndStaysAppendable) {
  const std::string path = fresh_path("journal_compact.wal");
  Journal journal(path, FsyncPolicy::kBatch);
  for (int i = 0; i < 4; ++i) journal.append("delta-" + std::to_string(i));
  journal.sync();
  EXPECT_EQ(journal.appends_since_compact(), 4);

  journal.compact(R"({"t":"snapshot","seq":4})");
  EXPECT_EQ(journal.appends_since_compact(), 0);
  EXPECT_EQ(payloads_of(Journal::read_all(path)),
            (std::vector<std::string>{R"({"t":"snapshot","seq":4})"}));

  // The writer followed the rename: post-compaction appends land in the
  // new file, not the unlinked inode.
  journal.append("delta-after-compact");
  EXPECT_EQ(Journal::read_all(path).records.size(), 2u);
}

TEST(SvcJournal, ParsesFsyncPolicyNames) {
  EXPECT_EQ(parse_fsync_policy("always"), FsyncPolicy::kAlways);
  EXPECT_EQ(parse_fsync_policy("batch"), FsyncPolicy::kBatch);
  EXPECT_EQ(parse_fsync_policy("off"), FsyncPolicy::kOff);
  EXPECT_THROW(parse_fsync_policy("sometimes"), SvcError);
  EXPECT_STREQ(to_string(FsyncPolicy::kBatch), "batch");
}

TEST(SvcJournal, TruncateOpenDiscardsStaleContents) {
  const std::string path = fresh_path("journal_stale.wal");
  { Journal journal(path, FsyncPolicy::kOff); journal.append("stale"); }
  Journal fresh(path, FsyncPolicy::kOff, /*truncate=*/true);
  fresh.append("new-life");
  EXPECT_EQ(payloads_of(Journal::read_all(path)),
            (std::vector<std::string>{"new-life"}));
}

// ---------------------------------------------------------------------
// Session-level journaling + rid dedup

/// Minimal synchronous responder capture (the session ACKs deltas on the
/// submitting thread).
Json submit_and_wait(Session* session, double id, Op op, Json body) {
  Request req;
  req.id = id;
  req.op = op;
  req.body = std::move(body);
  Json response;
  bool got = false;
  std::mutex mu;
  std::condition_variable cv;
  session->submit(req, [&](std::string line) {
    std::lock_guard<std::mutex> lock(mu);
    response = Json::parse(std::string(line.data(), line.size() - 1));
    got = true;
    cv.notify_all();
  });
  std::unique_lock<std::mutex> lock(mu);
  cv.wait_for(lock, std::chrono::seconds(30), [&] { return got; });
  EXPECT_TRUE(got) << "no response for id " << id;
  return response;
}

Json add_job_body(const std::vector<double>& demands,
                  const std::string& rid = "") {
  Json body = Json::object();
  body.set("demands", to_json(demands));
  body.set("weight", Json(1.0));
  if (!rid.empty()) body.set("rid", Json(rid));
  return body;
}

TEST(SvcJournalSession, JournalsEveryAckedDeltaBeforeServing) {
  const std::string path = fresh_path("journal_session.wal");
  auto owned = fresh_session("j", std::vector<double>{100.0, 50.0});
  Session& session = *owned;
  session.attach_journal(
      std::make_unique<Journal>(path, FsyncPolicy::kAlways));
  EXPECT_TRUE(session.has_journal());

  Json a = submit_and_wait(&session, 1, Op::kAddJob,
                           add_job_body({10, 0}, "rid-a"));
  EXPECT_TRUE(a.bool_or("ok", false));
  Json b = submit_and_wait(&session, 2, Op::kAddJob, add_job_body({5, 5}));
  Json fin = Json::object();
  fin.set("job", *b.find("job"));
  submit_and_wait(&session, 3, Op::kFinishJob, std::move(fin));
  session.drain();

  const JournalReplay replay = Journal::read_all(path);
  ASSERT_EQ(replay.records.size(), 3u);
  Json first = Json::parse(replay.records[0].payload);
  EXPECT_EQ(first.string_or("t", ""), "delta");
  EXPECT_EQ(first.string_or("op", ""), "add_job");
  EXPECT_EQ(first.string_or("rid", ""), "rid-a");
  EXPECT_EQ(first.number_or("seq", 0.0), 1.0);
  EXPECT_EQ(Json::parse(replay.records[2].payload).string_or("op", ""),
            "finish_job");
}

TEST(SvcJournalSession, RetriedRidIsReAckedOnceNotReapplied) {
  auto owned = fresh_session("dedup", std::vector<double>{100.0});
  Session& session = *owned;
  Json first = submit_and_wait(&session, 1, Op::kAddJob,
                               add_job_body({10}, "rid-x"));
  Json retry = submit_and_wait(&session, 2, Op::kAddJob,
                               add_job_body({10}, "rid-x"));
  EXPECT_TRUE(retry.bool_or("dup", false));
  EXPECT_EQ(retry.number_or("job", -1.0), first.number_or("job", -2.0));
  EXPECT_EQ(retry.number_or("seq", -1.0), first.number_or("seq", -2.0));
  // Exactly one job exists.
  Json snapshot = submit_and_wait(&session, 3, Op::kSnapshot, Json::object());
  EXPECT_EQ(
      snapshot.find("snapshot")->find("jobs")->as_array().size(), 1u);
  session.drain();
}

TEST(SvcJournalSession, DedupWindowEvictsOldestRidFifo) {
  SessionConfig cfg = test_session_config();
  cfg.dedup_window = 2;
  auto owned = fresh_session("evict", std::vector<double>{100.0}, cfg);
  Session& session = *owned;
  submit_and_wait(&session, 1, Op::kAddJob, add_job_body({1}, "rid-1"));
  submit_and_wait(&session, 2, Op::kAddJob, add_job_body({1}, "rid-2"));
  submit_and_wait(&session, 3, Op::kAddJob, add_job_body({1}, "rid-3"));
  // rid-1 slid out of the window: its retry is a NEW admission (the
  // documented hazard of recycling rids), while rid-3 still dedups.
  Json evicted = submit_and_wait(&session, 4, Op::kAddJob,
                                 add_job_body({1}, "rid-1"));
  EXPECT_FALSE(evicted.bool_or("dup", false));
  Json kept = submit_and_wait(&session, 5, Op::kAddJob,
                              add_job_body({1}, "rid-3"));
  EXPECT_TRUE(kept.bool_or("dup", false));
  session.drain();
}

// ---------------------------------------------------------------------
// Hardened --restore error paths

TEST(SvcRestore, RejectsCorruptRestoreFilesWithTypedContext) {
  const std::string dir = AMF_TEST_DATA_DIR;
  auto restore_error = [](const std::string& file) -> std::string {
    ServerConfig config;
    config.tcp_port = 0;
    Server server(config);
    try {
      server.restore_from_file(file);
    } catch (const util::ContractError& e) {
      server.trigger_drain();
      return e.what();
    }
    server.trigger_drain();
    return "";
  };

  const std::string missing = restore_error(dir + "/no_such_file.json");
  EXPECT_NE(missing.find("cannot open restore file"), std::string::npos)
      << missing;

  const std::string bad_json = restore_error(dir + "/restore_bad_json.json");
  EXPECT_NE(bad_json.find("restore_bad_json.json"), std::string::npos);
  EXPECT_NE(bad_json.find("not valid JSON"), std::string::npos) << bad_json;

  const std::string wrong_v =
      restore_error(dir + "/restore_wrong_version.json");
  EXPECT_NE(wrong_v.find("not a v1 snapshot"), std::string::npos) << wrong_v;

  // A structurally-valid file whose session entry is corrupt names the
  // offending session.
  const std::string bad_entry =
      restore_error(dir + "/restore_bad_session.json");
  EXPECT_NE(bad_entry.find("session \"broken\""), std::string::npos)
      << bad_entry;
}

}  // namespace
}  // namespace amf::svc
