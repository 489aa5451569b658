// repl.hpp — primary → warm-standby journal streaming (the HA substrate).
//
// The primary tails every journal record (session births, deltas, and
// compaction snapshots) over one dedicated loopback TCP connection to a
// standby, which applies them through the same validate/apply path the
// crash-recovery replay uses. Records reuse the journal payload bytes
// verbatim, so anything a journal can replay, a standby can follow.
//
// ## Wire protocol (line-delimited JSON, sender → standby)
//
//   sender:  {"t":"hello","v":1,"epoch":E}
//   standby: {"t":"ok","epoch":E'}            accepted (E' >= local epoch)
//            {"t":"fenced","epoch":E'}        sender's epoch is stale
//   sender:  {"t":"rec","i":K,"epoch":E,"session":S,"record":{...}}
//   standby: {"t":"ack","i":K}                applied (cumulative)
//            {"t":"fenced","epoch":E'}        sender deposed mid-stream
//            {"t":"err","i":K,"message":M}    record rejected (divergence)
//
// Acks are cumulative: ack i confirms every record with index <= i. On
// reconnect the sender resends everything unacked; the standby skips
// records whose seq it already applied, so the stream is idempotent.
//
// ## Epoch fencing
//
// A monotonic epoch (persisted as `<journal_dir>/EPOCH`, atomic
// tmp+rename) orders primaries in time. Promotion bumps the standby's
// epoch above everything it has seen; from then on any record or
// handshake carrying a lower epoch is rejected with "fenced", and the
// deposed sender goes terminal — its clients stop receiving ACKs in
// repl-ack mode and its /healthz reports the fence. Split-brain writes
// are thus refused at the replication boundary, not merely discouraged.
//
// ## Failure states
//
//   connected  streaming; lag gauges near zero
//   (lagging)  standby down or slow: unacked records spool in memory,
//              bounded by a fixed spool cap — async mode keeps ACKing
//              clients (the spool is the loss window), ack mode times
//              out
//   fenced     a higher epoch exists: terminal, offers are refused
//   broken     spool overflowed or the standby rejected a record
//              (divergence): terminal, replication needs a re-seed
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>

namespace amf::svc {

/// Reads `<dir>/EPOCH`; 0 when the file is missing or unparsable.
long long read_epoch_file(const std::string& dir);

/// Persists `epoch` to `<dir>/EPOCH` atomically (tmp + fsync + rename +
/// directory fsync). Throws util::ContractError on I/O failure.
void write_epoch_file(const std::string& dir, long long epoch);

struct ReplSenderConfig {
  std::string host = "127.0.0.1";
  int port = 0;
  /// Withhold client ACKs until the standby confirms (see session.cpp).
  bool ack = false;
  /// Bound on each standby-confirmation wait in ack mode.
  double ack_timeout_ms = 5000.0;
  double reconnect_initial_ms = 50.0;
};

/// Streams journal records to one standby from a dedicated thread.
/// offer() never blocks on the network; ack-mode waiting is explicit
/// (wait_acked) so sessions can release their locks first.
class ReplSender {
 public:
  /// offer() result meaning "this record will never be confirmed".
  static constexpr std::uint64_t kFailedIndex = ~std::uint64_t{0};

  enum class WaitResult { kAcked, kTimeout, kFenced, kBroken };

  ReplSender(ReplSenderConfig config, long long epoch);
  ~ReplSender();

  ReplSender(const ReplSender&) = delete;
  ReplSender& operator=(const ReplSender&) = delete;

  void start();
  /// Idempotent; joins the sender thread.
  void stop();

  /// Enqueues one journal record payload for `session` and returns its
  /// replication index (monotonic from 1) via *index. Returns false —
  /// and sets *index = kFailedIndex — when the sender is fenced or
  /// broken (including a spool overflow caused by this offer).
  bool offer(const std::string& session, std::string payload,
             std::uint64_t* index);

  /// Blocks until the standby acked `index`, the timeout expires, or the
  /// sender goes terminal. kFailedIndex maps to kFenced/kBroken.
  WaitResult wait_acked(std::uint64_t index, double timeout_ms);

  bool acked(std::uint64_t index) const;

  bool ack_mode() const { return config_.ack; }
  double ack_timeout_ms() const { return config_.ack_timeout_ms; }
  bool fenced() const { return fenced_.load(std::memory_order_acquire); }
  bool broken() const { return broken_.load(std::memory_order_acquire); }
  bool connected() const { return connected_.load(std::memory_order_acquire); }
  /// Highest epoch observed from the standby (>= our own once fenced).
  long long peer_epoch() const;
  std::uint64_t offered() const;
  std::uint64_t acked_index() const;

 private:
  struct Pending {
    std::uint64_t index = 0;
    std::string session;
    std::string payload;
    double enqueued_ms = 0.0;  // steady-clock ms, for the lag gauge
  };

  void run();
  /// Streams over one live connection; returns to reconnect or exit.
  void serve_connection(class Socket& sock);
  /// Sends the hello and reads the reply, giving up after 2 s or when
  /// `interrupt` says stop.
  bool handshake(class Socket& sock, const struct WaitInterrupt& interrupt);
  bool stopping() const;
  void handle_reply_locked(const std::string& line, bool* fatal);
  void update_lag_gauges_locked();
  bool sleep_backoff(double* backoff_ms);

  ReplSenderConfig config_;
  long long epoch_ = 0;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;     // unacked records, oldest first
  std::size_t queue_bytes_ = 0;
  std::uint64_t next_index_ = 1;  // next offer() gets this index
  std::uint64_t sent_index_ = 0;  // highest index written to the socket
  std::uint64_t acked_index_ = 0;
  long long peer_epoch_ = 0;
  bool stop_ = false;
  bool ever_connected_ = false;

  std::atomic<bool> connected_{false};
  std::atomic<bool> fenced_{false};
  std::atomic<bool> broken_{false};

  int wake_read_ = -1;   // self-pipe: offer()/stop() wake the poll loop
  int wake_write_ = -1;
  std::thread thread_;
};

}  // namespace amf::svc
