#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

#include "obs/export.h"
#include "support/env.h"

namespace faultlab::obs {

namespace {

/// Relaxed atomic max (used for histogram max and the NOT-encoded min).
void atomic_max(std::atomic<std::uint64_t>& cell, std::uint64_t v) noexcept {
  std::uint64_t cur = cell.load(std::memory_order_relaxed);
  while (v > cur &&
         !cell.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

bool metrics_enabled() noexcept {
  static const bool on = [] {
    const bool enabled = support::parse_env_flag("FAULTLAB_METRICS", false);
    // Programs that never reach a scheduler run still get their metrics.
    if (enabled) std::atexit([] { flush_metrics(); });
    return enabled;
  }();
  return on;
}

bool progress_enabled() noexcept {
  static const bool on = support::parse_env_flag("FAULTLAB_PROGRESS", false);
  return on;
}

unsigned HistogramSnapshot::bucket_of(std::uint64_t value) noexcept {
  return static_cast<unsigned>(std::bit_width(value));
}

std::uint64_t HistogramSnapshot::bucket_lo(unsigned bucket) noexcept {
  return bucket == 0 ? 0 : std::uint64_t{1} << (bucket - 1);
}

std::uint64_t HistogramSnapshot::bucket_hi(unsigned bucket) noexcept {
  if (bucket == 0) return 0;
  if (bucket == 64) return ~std::uint64_t{0};
  return (std::uint64_t{1} << bucket) - 1;
}

double HistogramSnapshot::percentile(double p) const noexcept {
  if (count == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  const double target = (p / 100.0) * static_cast<double>(count);
  std::uint64_t before = 0;
  for (unsigned b = 0; b < kBuckets; ++b) {
    if (buckets[b] == 0) continue;
    const std::uint64_t cum = before + buckets[b];
    if (static_cast<double>(cum) >= target) {
      const double lo = static_cast<double>(bucket_lo(b));
      const double hi = static_cast<double>(bucket_hi(b));
      const double frac =
          std::max(0.0, target - static_cast<double>(before)) /
          static_cast<double>(buckets[b]);
      const double v = lo + frac * (hi - lo);
      return std::clamp(v, static_cast<double>(min), static_cast<double>(max));
    }
    before = cum;
  }
  return static_cast<double>(max);
}

double percentile_sorted(const std::vector<double>& sorted,
                         double p) noexcept {
  if (sorted.empty()) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  const double rank = (p / 100.0) * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= sorted.size()) return sorted.back();
  return sorted[lo] + frac * (sorted[lo + 1] - sorted[lo]);
}

const MetricsSnapshot::CounterEntry* MetricsSnapshot::counter(
    const std::string& name) const noexcept {
  for (const auto& e : counters)
    if (e.name == name) return &e;
  return nullptr;
}

const MetricsSnapshot::GaugeEntry* MetricsSnapshot::gauge(
    const std::string& name) const noexcept {
  for (const auto& e : gauges)
    if (e.name == name) return &e;
  return nullptr;
}

const MetricsSnapshot::HistogramEntry* MetricsSnapshot::histogram(
    const std::string& name) const noexcept {
  for (const auto& e : histograms)
    if (e.name == name) return &e;
  return nullptr;
}

void Counter::add(std::uint64_t n) {
  if (registry_ == nullptr) return;
  Registry::Segment& seg = registry_->local_shard().segment_for(slot_);
  seg.cells[slot_ % Registry::kSegmentCells].fetch_add(
      n, std::memory_order_relaxed);
}

void Histogram::record(std::uint64_t value) {
  if (registry_ == nullptr) return;
  // All of a histogram's cells share one segment (register_metric pads to
  // the segment boundary), so the segment resolves once.
  Registry::Segment& seg = registry_->local_shard().segment_for(slot_);
  auto* cells = seg.cells.data() + slot_ % Registry::kSegmentCells;
  constexpr unsigned kB = HistogramSnapshot::kBuckets;
  cells[HistogramSnapshot::bucket_of(value)].fetch_add(
      1, std::memory_order_relaxed);
  cells[kB + 0].fetch_add(1, std::memory_order_relaxed);      // count
  cells[kB + 1].fetch_add(value, std::memory_order_relaxed);  // sum
  atomic_max(cells[kB + 2], ~value);                          // ~min
  atomic_max(cells[kB + 3], value);                           // max
}

Registry::Shard::~Shard() {
  for (auto& slot : segments) delete slot.load(std::memory_order_acquire);
}

Registry::Segment& Registry::Shard::segment_for(std::size_t slot) {
  std::atomic<Segment*>& entry = segments[slot / kSegmentCells];
  Segment* seg = entry.load(std::memory_order_acquire);
  if (seg == nullptr) {
    auto* fresh = new Segment();  // cells value-initialize to 0
    if (entry.compare_exchange_strong(seg, fresh, std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
      seg = fresh;
    } else {
      delete fresh;  // another publisher won; `seg` holds the winner
    }
  }
  return *seg;
}

Registry::Registry() {
  static std::atomic<std::uint64_t> next_id{1};
  id_ = next_id.fetch_add(1, std::memory_order_relaxed);
}

Registry::~Registry() = default;

Registry::Shard& Registry::local_shard() {
  // Thread-local shard cache, keyed by the registry's process-unique id so
  // a stale entry for a destroyed registry can never be confused with a
  // live one at a reused address.
  struct CacheEntry {
    std::uint64_t registry_id;
    Shard* shard;
  };
  thread_local std::vector<CacheEntry> cache;
  for (const CacheEntry& e : cache)
    if (e.registry_id == id_) return *e.shard;
  std::lock_guard<std::mutex> lock(mutex_);
  shards_.push_back(std::make_unique<Shard>());
  Shard* shard = shards_.back().get();
  cache.push_back({id_, shard});
  return *shard;
}

const Registry::Metric& Registry::register_metric(const std::string& name,
                                                  Kind kind,
                                                  std::size_t slots) {
  for (const Metric& m : metrics_) {
    if (m.name != name) continue;
    if (m.kind != kind)
      throw std::logic_error("metric '" + name +
                             "' already registered with a different kind");
    return m;
  }
  // Keep every metric inside one segment so handles resolve the segment
  // pointer once: pad to the next boundary when this one would straddle.
  const std::size_t used = next_slot_ % kSegmentCells;
  if (used + slots > kSegmentCells)
    next_slot_ += kSegmentCells - used;
  if (next_slot_ + slots > kMaxCells)
    throw std::length_error("metrics registry slot capacity exhausted");
  Metric m;
  m.name = name;
  m.kind = kind;
  if (kind == Kind::Gauge) {
    m.index = gauges_.size();
    gauges_.emplace_back(0);
  } else {
    m.slot = next_slot_;
    next_slot_ += slots;
  }
  metrics_.push_back(std::move(m));
  return metrics_.back();
}

Counter Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return Counter(this, register_metric(name, Kind::Counter, 1).slot);
}

Gauge Registry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return Gauge(&gauges_[register_metric(name, Kind::Gauge, 0).index]);
}

Histogram Registry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return Histogram(this,
                   register_metric(name, Kind::Histogram, kHistogramSlots).slot);
}

MetricsSnapshot Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot out;
  auto cell = [](const Shard& shard, std::size_t slot) -> std::uint64_t {
    const Segment* seg = shard.segment_if(slot);
    if (seg == nullptr) return 0;  // never touched by this thread
    return seg->cells[slot % kSegmentCells].load(std::memory_order_relaxed);
  };
  auto merged = [this, &cell](std::size_t slot) {
    std::uint64_t sum = 0;
    for (const auto& shard : shards_) sum += cell(*shard, slot);
    return sum;
  };
  auto merged_max = [this, &cell](std::size_t slot) {
    std::uint64_t m = 0;
    for (const auto& shard : shards_) m = std::max(m, cell(*shard, slot));
    return m;
  };
  for (const Metric& m : metrics_) {
    switch (m.kind) {
      case Kind::Counter:
        out.counters.push_back({m.name, merged(m.slot)});
        break;
      case Kind::Gauge:
        out.gauges.push_back(
            {m.name, gauges_[m.index].load(std::memory_order_relaxed)});
        break;
      case Kind::Histogram: {
        HistogramSnapshot h;
        constexpr unsigned kB = HistogramSnapshot::kBuckets;
        for (unsigned b = 0; b < kB; ++b) h.buckets[b] = merged(m.slot + b);
        h.count = merged(m.slot + kB + 0);
        h.sum = merged(m.slot + kB + 1);
        h.min = h.count == 0 ? 0 : ~merged_max(m.slot + kB + 2);
        h.max = merged_max(m.slot + kB + 3);
        out.histograms.push_back({m.name, h});
        break;
      }
    }
  }
  return out;
}

Registry& Registry::global() {
  static Registry* registry = new Registry();  // leaked: outlives all threads
  return *registry;
}

}  // namespace faultlab::obs
