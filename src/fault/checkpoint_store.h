// Shared checkpoint container for the injector engines.
//
// Both LLFI and PINFI capture the same thing during profile_all(): an
// execution snapshot every stride instructions plus the per-category
// instance counters at that point (halve() thins the sequence when the
// capture stride doubles). This template owns that sequence, the
// "nearest resumable point before the k-th instance" query, the "next
// golden state after instruction n" query behind the golden-convergence
// early exit, and the snapshot memory budget: when the summed mapped-page
// counts of live snapshots exceed the budget, entries are evicted —
// least-recently-used first, interval thinning (smallest coverage gap left
// behind) as the tie-break — and a trial whose ideal window was evicted
// transparently falls back to the nearest earlier live one (or a
// from-scratch run).
//
// Thread-safety contract: add()/halve()/set_budget() are capture/setup
// operations and must not run concurrently with trials; before(), after()
// and window_of() are safe to call from many trial workers at once (the
// only mutation is the per-entry LRU stamp, a relaxed atomic).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <limits>
#include <string>

#include "fault/engine.h"
#include "ir/category.h"

namespace faultlab::fault {

template <typename SnapshotT>
class CheckpointStore {
 public:
  static constexpr std::uint64_t kNoWindow = InjectorEngine::kNoWindow;

  struct Entry {
    SnapshotT snapshot;
    CategoryCounts seen;
    std::uint64_t executed = 0;  ///< golden position (kept after eviction)
    std::size_t pages = 0;       ///< mapped pages at capture time
    bool alive = true;
    mutable std::atomic<std::uint64_t> last_touch{0};
  };

  void set_budget(std::uint64_t pages) {
    budget_pages_ = pages;
    enforce_budget();
  }

  /// Appends a snapshot captured at `seen` instance counts, then evicts
  /// until the live set fits the budget again.
  void add(SnapshotT&& snapshot, const CategoryCounts& seen) {
    Entry& e = entries_.emplace_back();  // deque: growth never moves entries
    e.executed = snapshot.executed;
    e.pages = snapshot.memory.mapped_pages();
    e.snapshot = std::move(snapshot);
    e.seen = seen;
    live_pages_ += e.pages;
    ++live_count_;
    enforce_budget();
  }

  /// Drops every other entry — the first, third, ... — keeping every
  /// second capture: the grid of a stride twice as long, on which the
  /// capture then continues. Eviction counts are unaffected (halving is
  /// not an eviction).
  void halve() {
    std::deque<Entry> kept;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      Entry& e = entries_[i];
      if (i % 2 == 0) {
        if (e.alive) {
          live_pages_ -= e.pages;
          --live_count_;
        }
        continue;
      }
      Entry& k = kept.emplace_back();  // Entry is immovable (atomic stamp)
      k.snapshot = std::move(e.snapshot);
      k.seen = e.seen;
      k.executed = e.executed;
      k.pages = e.pages;
      k.alive = e.alive;
      k.last_touch.store(e.last_touch.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
    }
    entries_.swap(kept);
  }

  /// Latest live entry whose prefix holds fewer than k `category`
  /// instances, or nullptr (run from scratch). Stamps the entry's LRU
  /// clock.
  const Entry* before(ir::Category category, std::uint64_t k) const {
    const std::size_t idx = index_before(category, k);
    if (idx == entries_.size()) return nullptr;
    const Entry& e = entries_[idx];
    e.last_touch.store(clock_.fetch_add(1, std::memory_order_relaxed) + 1,
                       std::memory_order_relaxed);
    return &e;
  }

  /// Index of the entry before() would resume from, or kNoWindow. Used by
  /// the scheduler to group trials sharing a resident snapshot; does not
  /// stamp the LRU clock.
  std::uint64_t window_of(ir::Category category, std::uint64_t k) const {
    const std::size_t idx = index_before(category, k);
    return idx == entries_.size() ? kNoWindow
                                  : static_cast<std::uint64_t>(idx);
  }

  /// Latest live entry captured strictly before dynamic instruction `t`,
  /// or nullptr (run from scratch). The time-triggered analogue of
  /// before(): resuming it replays every instruction from `executed` to
  /// `t`, so a hook armed at `t` misses nothing. Stamps the LRU clock.
  const Entry* before_time(std::uint64_t t) const {
    const std::size_t idx = index_before_time(t);
    if (idx == entries_.size()) return nullptr;
    const Entry& e = entries_[idx];
    e.last_touch.store(clock_.fetch_add(1, std::memory_order_relaxed) + 1,
                       std::memory_order_relaxed);
    return &e;
  }

  /// Index of the entry before_time() would resume from, or kNoWindow.
  std::uint64_t window_of_time(std::uint64_t t) const {
    const std::size_t idx = index_before_time(t);
    return idx == entries_.size() ? kNoWindow
                                  : static_cast<std::uint64_t>(idx);
  }

  /// Snapshot of the first live entry captured strictly after dynamic
  /// instruction `executed`, or nullptr: the next golden state a trial
  /// standing at `executed` can converge on (evicted entries are skipped).
  const SnapshotT* after(std::uint64_t executed) const {
    auto it = std::upper_bound(
        entries_.begin(), entries_.end(), executed,
        [](std::uint64_t t, const Entry& e) { return t < e.executed; });
    while (it != entries_.end() && !it->alive) ++it;
    return it != entries_.end() ? &it->snapshot : nullptr;
  }

  std::size_t size() const noexcept { return entries_.size(); }
  std::size_t live_count() const noexcept { return live_count_; }
  std::uint64_t live_pages() const noexcept { return live_pages_; }
  std::uint64_t evictions() const noexcept { return evictions_; }
  std::uint64_t budget_pages() const noexcept { return budget_pages_; }

 private:
  /// Index of the latest live entry with seen[category] < k, or size().
  std::size_t index_before(ir::Category category, std::uint64_t k) const {
    // Entries are in execution order and seen-counts are monotonic (dead
    // entries keep their counters), so binary search still applies; walk
    // left past evicted entries to the nearest live resume point.
    std::size_t hi = entries_.size();
    std::size_t lo = 0;
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (entries_[mid].seen[category] < k)
        lo = mid + 1;
      else
        hi = mid;
    }
    while (lo > 0) {
      if (entries_[lo - 1].alive) return lo - 1;
      --lo;
    }
    return entries_.size();
  }

  /// Index of the latest live entry with executed < t, or size(). Same
  /// shape as index_before(): executed counts are strictly increasing, so
  /// binary search applies, then walk left past evicted entries.
  std::size_t index_before_time(std::uint64_t t) const {
    std::size_t hi = entries_.size();
    std::size_t lo = 0;
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (entries_[mid].executed < t)
        lo = mid + 1;
      else
        hi = mid;
    }
    while (lo > 0) {
      if (entries_[lo - 1].alive) return lo - 1;
      --lo;
    }
    return entries_.size();
  }

  void enforce_budget() {
    if (budget_pages_ == 0) return;
    while (live_pages_ > budget_pages_ && live_count_ > 0) evict_one();
  }

  /// Evicts the live entry with the oldest LRU stamp; among equals, the
  /// one whose removal leaves the smallest gap between its live neighbours
  /// (interval thinning — untouched stores degrade to evenly-thinned
  /// coverage instead of dropping a whole flank). The final live entry
  /// has an unbounded trailing gap, so the most recent resume point
  /// survives longest.
  void evict_one() {
    constexpr std::uint64_t kInf = std::numeric_limits<std::uint64_t>::max();
    std::size_t victim = entries_.size();
    std::uint64_t victim_touch = kInf;
    std::uint64_t victim_gap = kInf;
    std::uint64_t prev_executed = 0;  // golden run starts at instruction 0
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (!entries_[i].alive) continue;
      std::uint64_t next_executed = kInf;
      for (std::size_t j = i + 1; j < entries_.size(); ++j) {
        if (entries_[j].alive) {
          next_executed = entries_[j].executed;
          break;
        }
      }
      const std::uint64_t touch =
          entries_[i].last_touch.load(std::memory_order_relaxed);
      const std::uint64_t gap =
          next_executed == kInf ? kInf : next_executed - prev_executed;
      if (touch < victim_touch ||
          (touch == victim_touch && gap < victim_gap)) {
        victim = i;
        victim_touch = touch;
        victim_gap = gap;
      }
      prev_executed = entries_[i].executed;
    }
    if (victim == entries_.size()) return;
    Entry& e = entries_[victim];
    e.alive = false;
    e.snapshot = SnapshotT{};  // release the pages now
    live_pages_ -= e.pages;
    --live_count_;
    ++evictions_;
  }

  std::deque<Entry> entries_;
  std::uint64_t budget_pages_ = 0;
  std::uint64_t live_pages_ = 0;
  std::size_t live_count_ = 0;
  std::uint64_t evictions_ = 0;
  mutable std::atomic<std::uint64_t> clock_{0};
};

/// Completes a run that stopped on golden snapshot `r.converged` (DESIGN
/// §4): the rest would have replayed the golden suffix, so the total is the
/// golden total and the output continues with the golden output past the
/// snapshot's. Mirrors the trial into the checkpoint metrics and returns
/// the golden-suffix instructions that were skipped.
template <typename RunResultT>
std::uint64_t complete_converged(RunResultT& r,
                                 const std::string& golden_output,
                                 std::uint64_t golden_instructions) {
  r.output.append(golden_output, r.converged->runtime.output.size());
  const std::uint64_t suffix = golden_instructions - r.dynamic_instructions;
  r.dynamic_instructions = golden_instructions;
  if (obs::metrics_enabled()) {
    checkpoint_metrics().converged_trials.add();
    checkpoint_metrics().converged_instructions.add(suffix);
  }
  return suffix;
}

}  // namespace faultlab::fault
