// journal.hpp — per-session write-ahead delta journal.
//
// The serving contract ACKs a delta at admission; without a journal a
// `kill -9` discards every acknowledged mutation since the last graceful
// drain. The journal closes that hole: every ACKed op is appended to a
// per-session record log *before* the ACK line is written to the socket,
// so a restart with `--journal` replays the exact ACKed prefix and the
// recovered session serves allocations bit-identical to an uncrashed
// server (pinned by the fork/kill-9 recovery test).
//
// ## On-disk format
//
// A journal file is a sequence of framed records, nothing else:
//
//   [u32 payload_length (LE)] [u32 crc32(payload) (LE)] [payload bytes]
//
// The payload is one JSON object (the same dialect as the wire protocol):
//   {"t":"create", "capacities":[...], "policy":..., ...}   session birth
//   {"t":"snapshot", "seq":S, "snapshot":{...}}             compaction base
//   {"t":"delta", "seq":N, "op":"add_job", "job":7, ...}    one ACKed op
//
// Records are appended with a single write() each, so a crash can tear at
// most the final record. read_all() tolerates exactly that: it stops at
// the first frame that is short, oversized, or fails its CRC, reports the
// valid byte prefix plus a warning, and never throws on torn input — the
// caller truncates the file to `valid_bytes` and serves on. (A mid-file
// corruption behaves the same way: everything after the first bad frame
// is untrusted, because frame boundaries downstream of it are guesses.)
//
// ## Durability policy
//
//   kAlways  fdatasync after every append, before the ACK is sent. An
//            ACKed delta survives any crash.
//   kBatch   appends are plain write()s; the session task calls sync()
//            once per drained batch (piggybacking on the batch window).
//            A crash can lose at most the final window of ACKed deltas.
//   kOff     no explicit syncing; the kernel page cache decides. A crash
//            loses up to everything since the last natural writeback —
//            the bench baseline, not a production setting.
//
// ## Compaction
//
// The log would otherwise grow without bound. When the session is
// quiescent (no admitted-but-unapplied deltas, so every journaled record
// is covered by the current state) the session task rewrites the file as a
// single snapshot record via compact(): write a temp file, fdatasync,
// rename over the log, fdatasync the directory. A crash at any point
// leaves either the old complete log or the new one, never neither.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace amf::svc {

/// When appends reach the disk relative to the ACK they guard.
enum class FsyncPolicy { kAlways, kBatch, kOff };

/// Parses "always" | "batch" | "off"; throws SvcError(kBadRequest)
/// otherwise.
FsyncPolicy parse_fsync_policy(std::string_view name);
const char* to_string(FsyncPolicy policy);

/// CRC-32 (IEEE 802.3, reflected) of `data` — the record checksum.
std::uint32_t crc32(std::string_view data);

/// One decoded journal payload (still JSON text; the session layer parses
/// and interprets it).
struct JournalRecord {
  std::string payload;
};

/// Result of scanning a journal file.
struct JournalReplay {
  std::vector<JournalRecord> records;  ///< valid prefix, in append order
  /// Byte offset where records[i] starts — recovery truncates here when
  /// record i is well-framed but semantically rejected (everything after
  /// a rejected record depends on state the replay never reached).
  std::vector<std::size_t> offsets;
  std::size_t valid_bytes = 0;  ///< offset the file should be truncated to
  bool truncated = false;       ///< a torn/corrupt tail was dropped
  std::string warning;          ///< human-readable reason when truncated
};

class Journal {
 public:
  /// Opens (creating if needed) the journal at `path` for appending.
  /// `truncate` discards any existing contents — a freshly created
  /// session must not inherit a stale log from a deleted namesake.
  /// Throws util::ContractError when the file cannot be opened.
  Journal(std::string path, FsyncPolicy policy, bool truncate = false);
  ~Journal();

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  const std::string& path() const { return path_; }
  FsyncPolicy policy() const { return policy_; }

  /// Appends one framed record (a single write(); kAlways also syncs).
  /// Thread-safe. Throws util::ContractError on I/O failure — losing a
  /// journaled write silently would void the durability contract.
  void append(std::string_view payload);

  /// Flushes pending appends to disk under kBatch (no-op otherwise).
  /// Thread-safe.
  void sync();

  /// Atomically replaces the log with the single record `payload` (the
  /// compaction snapshot). Thread-safe; appends concurrent with a
  /// compact serialize after it.
  void compact(std::string_view payload);

  /// Records appended (or kept by compact) since this writer opened.
  long long appends_since_compact() const;

  /// Truncates a crashed log's torn tail before reopening it for
  /// appends. Static: runs before any writer exists.
  static void truncate_to(const std::string& path, std::size_t bytes);

  /// Scans a journal file. Missing file -> empty replay (a session with
  /// no journal yet). Never throws on torn or corrupt input; the bad
  /// tail is reported via `truncated`/`warning`/`valid_bytes`.
  static JournalReplay read_all(const std::string& path);

  /// Frames `payload` exactly as append() writes it (tests and the
  /// chaos fixtures build corrupt logs from this).
  static std::string frame(std::string_view payload);

 private:
  void sync_locked();

  const std::string path_;
  const FsyncPolicy policy_;
  mutable std::mutex mu_;
  int fd_ = -1;
  bool dirty_ = false;  ///< unsynced appends under kBatch
  long long appends_since_compact_ = 0;
};

}  // namespace amf::svc
