// Trial-level metrics registry: counters, gauges, and fixed-bucket
// log-scale histograms.
//
// Counters and histograms are sharded per worker thread: every thread gets
// its own set of atomic cells (grown segment-by-segment as metrics are
// registered), increments touch only that shard (no cross-core cache-line
// ping-pong on the trial hot path), and Registry::snapshot() merges all
// shards on read. Gauges are set rarely (stride, snapshot count), so they
// live in one shared atomic each.
//
// The process-wide registry is gated by the FAULTLAB_METRICS environment
// variable: hot paths check `metrics_enabled()` — one cached-bool branch —
// before touching any handle, so the disabled path costs nothing and
// allocates nothing. Counts another layer already keeps in its own atomics
// are not mirrored here per event: the campaign scheduler publishes each
// run's share of the engines' checkpoint counters and the monitor's
// counters when the run ends, as publish_dispatch_metrics() does for the
// dispatch counters. Tests construct their own Registry instances and
// bypass the gate entirely.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace faultlab::obs {

/// True when FAULTLAB_METRICS is set to anything but "" or "0". Cached on
/// first call; the gate hot paths check before recording into the global
/// registry. When on, the first call also registers flush_metrics()
/// (obs/export.h) to run at exit.
bool metrics_enabled() noexcept;

/// True when FAULTLAB_PROGRESS is set to anything but "" or "0" (the
/// campaign monitor's opt-in stderr heartbeat). Cached on first call.
bool progress_enabled() noexcept;

/// Merged view of one histogram: log2 buckets (bucket b holds values whose
/// bit width is b, i.e. [2^(b-1), 2^b - 1]; bucket 0 holds only 0), plus
/// exact count/sum/min/max.
struct HistogramSnapshot {
  /// Bucket b covers [bucket_lo(b), bucket_hi(b)]; index = bit width of the
  /// value, so 65 buckets span the whole uint64 range.
  static constexpr unsigned kBuckets = 65;

  std::array<std::uint64_t, kBuckets> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;  ///< exact; 0 when count == 0
  std::uint64_t max = 0;

  static unsigned bucket_of(std::uint64_t value) noexcept;
  static std::uint64_t bucket_lo(unsigned bucket) noexcept;
  static std::uint64_t bucket_hi(unsigned bucket) noexcept;

  double mean() const noexcept {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }

  /// Percentile p in [0,100], linearly interpolated within the containing
  /// bucket's [lo, hi] range and clamped to the exact observed [min, max]
  /// (so constant data reports the constant exactly).
  double percentile(double p) const noexcept;
};

/// Exact percentile over an ascending-sorted sample (linear interpolation
/// between order statistics). Used for the per-campaign trial-latency
/// p50/p95/p99 in the run manifest, where the full sample is available.
double percentile_sorted(const std::vector<double>& sorted, double p) noexcept;

/// Point-in-time merged view of a whole registry.
struct MetricsSnapshot {
  struct CounterEntry {
    std::string name;
    std::uint64_t value = 0;
  };
  struct GaugeEntry {
    std::string name;
    std::int64_t value = 0;
  };
  struct HistogramEntry {
    std::string name;
    HistogramSnapshot hist;
  };

  std::vector<CounterEntry> counters;
  std::vector<GaugeEntry> gauges;
  std::vector<HistogramEntry> histograms;

  const CounterEntry* counter(const std::string& name) const noexcept;
  const GaugeEntry* gauge(const std::string& name) const noexcept;
  const HistogramEntry* histogram(const std::string& name) const noexcept;
};

class Registry;

/// Monotonic counter handle. Cheap to copy; valid while its Registry lives.
class Counter {
 public:
  Counter() = default;
  void add(std::uint64_t n = 1);

 private:
  friend class Registry;
  Counter(Registry* registry, std::size_t slot)
      : registry_(registry), slot_(slot) {}
  Registry* registry_ = nullptr;
  std::size_t slot_ = 0;
};

/// Last-value gauge handle (single shared atomic; set/add are rare).
class Gauge {
 public:
  Gauge() = default;
  void set(std::int64_t v) {
    if (cell_ != nullptr) cell_->store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t v) {
    if (cell_ != nullptr) cell_->fetch_add(v, std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  explicit Gauge(std::atomic<std::int64_t>* cell) : cell_(cell) {}
  std::atomic<std::int64_t>* cell_ = nullptr;
};

/// Log-scale histogram handle.
class Histogram {
 public:
  Histogram() = default;
  void record(std::uint64_t value);

 private:
  friend class Registry;
  Histogram(Registry* registry, std::size_t slot)
      : registry_(registry), slot_(slot) {}
  Registry* registry_ = nullptr;
  std::size_t slot_ = 0;
};

class Registry {
 public:
  /// Thread shards grow in fixed-size segments allocated on first touch,
  /// so the per-shard footprint tracks the metrics actually registered
  /// instead of a hard 1024-cell array. A counter takes 1 cell, a
  /// histogram kHistogramSlots; the (huge) directory bound below is the
  /// only cap, and registering past it throws.
  static constexpr std::size_t kSegmentCells = 128;  // >= kHistogramSlots
  static constexpr std::size_t kMaxSegments = 1024;
  static constexpr std::size_t kMaxCells = kSegmentCells * kMaxSegments;

  Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;
  ~Registry();

  /// Registration is idempotent: the same name always returns a handle to
  /// the same metric (a name registered as a different kind throws).
  Counter counter(const std::string& name);
  Gauge gauge(const std::string& name);
  Histogram histogram(const std::string& name);

  /// Merged view across every thread shard, metrics in registration order.
  MetricsSnapshot snapshot() const;

  /// The process-wide registry the engines/scheduler record into (guarded
  /// by metrics_enabled() at each call site).
  static Registry& global();

 private:
  friend class Counter;
  friend class Histogram;

  // Histogram shard layout: kBuckets bucket cells, then count, sum,
  // bitwise-NOT min (so the zero-initialized cell reads as "no minimum
  // yet"), and max.
  static constexpr std::size_t kHistogramSlots =
      HistogramSnapshot::kBuckets + 4;

  enum class Kind : std::uint8_t { Counter, Gauge, Histogram };
  struct Metric {
    std::string name;
    Kind kind;
    std::size_t slot = 0;   // counters/histograms: shard offset
    std::size_t index = 0;  // gauges: index into gauges_
  };
  // One shard per recording thread. Cells live in lazily CAS-published
  // segments: writers call segment_for() (allocates on first touch of a
  // segment), snapshot() peeks with segment_if() and reads absent segments
  // as zero. register_metric() never lets a metric straddle a segment
  // boundary, so a handle resolves its segment pointer once per record.
  struct Segment {
    std::array<std::atomic<std::uint64_t>, kSegmentCells> cells{};
  };
  struct Shard {
    std::array<std::atomic<Segment*>, kMaxSegments> segments{};
    ~Shard();
    Segment& segment_for(std::size_t slot);
    const Segment* segment_if(std::size_t slot) const noexcept {
      return segments[slot / kSegmentCells].load(std::memory_order_acquire);
    }
  };

  Shard& local_shard();
  const Metric& register_metric(const std::string& name, Kind kind,
                                std::size_t slots);

  mutable std::mutex mutex_;
  std::vector<Metric> metrics_;
  std::size_t next_slot_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::deque<std::atomic<std::int64_t>> gauges_;  // stable addresses
  std::uint64_t id_ = 0;  // process-unique; keys the thread-local cache
};

}  // namespace faultlab::obs
