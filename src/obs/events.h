// Fault-outcome flight recorder: a bounded, sharded per-trial event writer.
//
// The event log is the one per-trial timeline. It answers "what did each
// trial actually do": one JSON record per finished injection trial —
// which static site / opcode / bit was hit, whether the fault activated,
// what outcome it produced, which trap killed a crashing run and where,
// and how many instructions the fault travelled before the run ended. It
// also answers "where did the time go": each record carries the trial's
// start on the log's clock and its restore/execute/classify split, and
// tools/faultlab_report.py --chrome-trace renders the records as a Chrome
// trace (chrome://tracing, Perfetto). The stream is the raw material for
// crash-divergence attribution (fault/attribution.h) and the campaign
// dashboard (tools/faultlab_report.py).
//
// The writer is opt-in via FAULTLAB_EVENTS=<path>.jsonl and follows the
// same inert-when-disabled discipline as metrics_enabled(): the disabled
// path is one cached-bool branch at the call site — no clock read, no
// formatting, no allocation. When enabled, each worker thread formats
// records into its own shard buffer (no cross-thread contention on the hot
// path) and shards spill to the file in whole lines once they pass a flush
// threshold, so memory stays bounded no matter how many trials a campaign
// runs. Lines from different workers interleave, but every line is
// complete JSON; per-worker ordering is preserved (each record carries a
// monotonic `seq` per scheduler run and worker, which
// tools/validate_trace.py --events checks).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>

namespace faultlab::obs {

struct PropSummary;  // obs/propagation.h

/// True when FAULTLAB_EVENTS names a path (anything but "" or "0").
/// Cached on first call; call sites gate on it before touching the global
/// log so the disabled path costs one branch.
bool events_enabled() noexcept;

/// One finished injection trial, flattened for serialization. String
/// fields point at caller-owned storage that must stay alive for the
/// duration of the append() call only (the writer copies what it needs
/// into its shard buffer). `opcode`/`function`/`trap` may be null when the
/// trial never injected (or did not crash).
struct TrialEvent {
  const char* app = "";
  const char* tool = "";
  const char* category = "";
  /// fault::Model::name() of the injecting engine ("transient" baseline).
  const char* fault_model = "transient";
  /// Scheduler run within the process (0, 1, ...): worker ids and `seq`
  /// restart with each run.
  std::uint64_t run = 0;
  std::uint32_t worker = 0;       ///< small sequential worker/thread id
  std::uint64_t seq = 0;          ///< per-worker monotonic event number
  std::uint64_t trial = 0;        ///< draw index within the campaign
  std::uint64_t k = 0;            ///< dynamic target instance (1-based)
  unsigned bit = 0;               ///< flipped bit
  std::uint64_t static_site = 0;  ///< instruction id / code index
  const char* opcode = nullptr;   ///< opcode name of the injected site
  const char* function = nullptr; ///< function containing the site
  bool injected = false;
  bool activated = false;
  const char* outcome = "";       ///< fault::outcome_name string
  const char* trap = nullptr;     ///< machine::trap_kind_name, Crash only
  std::uint64_t trap_pc = 0;      ///< static location of the trap, Crash only
  std::uint64_t inject_instruction = 0;  ///< dynamic index of the injection
  std::uint64_t instructions_total = 0;  ///< whole-run dynamic instructions
  /// The propagation-distance signal: dynamic instructions between
  /// injection and run end.
  std::uint64_t instructions_after_injection = 0;
  bool checkpoint_hit = false;    ///< trial resumed from a snapshot
  double latency_ms = 0.0;        ///< trial wall time
  /// Trial start in µs since the log was opened (EventLog::micros_since_open).
  std::uint64_t start_us = 0;
  /// The trial's phase split (TrialRecord::restore_ns etc.) in µs.
  std::uint64_t restore_us = 0;
  std::uint64_t execute_us = 0;
  std::uint64_t classify_us = 0;
  /// Non-null for propagation-traced trials (FAULTLAB_PROP=1): the record
  /// is emitted as schema v2 with an additive "prop" object. Null keeps
  /// the line byte-identical to schema v1, so existing logs and consumers
  /// are unaffected unless tracing is on.
  const PropSummary* prop = nullptr;
};

/// Streaming JSONL writer, sharded per worker thread. Thread-safe.
class EventLog {
 public:
  /// Buffered bytes per shard before it spills to the file.
  static constexpr std::size_t kFlushBytes = 64 * 1024;
  static constexpr std::size_t kNumShards = 16;

  EventLog() = default;
  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;
  ~EventLog();

  /// Truncates `path` and starts accepting records. Returns false (with a
  /// stderr warning, writer stays disabled) when the file cannot be opened.
  bool open(const std::string& path);

  /// Flushes every shard and stops accepting records.
  void close();

  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Serializes one event into the calling thread's shard. No-op when the
  /// log is not open.
  void append(const TrialEvent& event);

  /// Writes all buffered shard bytes to the file. Called automatically on
  /// close() and by the scheduler at the end of each run so a crashed
  /// process still leaves the trials it finished on disk.
  void flush();

  /// Microseconds from open() to `t` (0 for an earlier `t`), on the steady
  /// clock every worker shares, so successive runs logged into one open
  /// log share one timeline.
  std::uint64_t micros_since_open(
      std::chrono::steady_clock::time_point t) const noexcept;

  /// Records appended (accepted) since open().
  std::uint64_t appended() const noexcept {
    return appended_.load(std::memory_order_relaxed);
  }

  /// Process-wide log: opened on first use iff FAULTLAB_EVENTS is set,
  /// flushed at exit. Tests may open()/close() their own instances.
  static EventLog& global();
  /// Cached value of FAULTLAB_EVENTS, or nullptr when unset/empty/"0".
  static const char* env_path() noexcept;

 private:
  struct Shard {
    std::mutex mutex;
    std::string buffer;
  };

  void write_locked(const std::string& data);

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> appended_{0};
  std::chrono::steady_clock::time_point opened_;  // set by open()
  Shard shards_[kNumShards];
  std::mutex file_mutex_;
  void* file_ = nullptr;  // std::FILE*, opaque to keep <cstdio> out of here
};

}  // namespace faultlab::obs
