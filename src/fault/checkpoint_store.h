// Shared checkpoint container for the injector engines.
//
// Both LLFI and PINFI capture the same thing during profile_all(): an
// execution snapshot every stride instructions plus the per-category
// instance counters at that point (halve() thins the sequence when the
// capture stride doubles), and kMarksPerWindow marks per stride. A mark is
// a golden position with the per-category instance counts of its prefix
// and no snapshot: a trial runs from its snapshot (or from main) to the
// last mark before its target instance with its injection hook dormant, on
// the executor's fast path, and wakes the hook there with the mark's count.
// This template owns both sequences, the "nearest resumable point" and
// "wake point before the k-th instance" queries, and the "next golden
// state after instruction n" query behind the golden-convergence early
// exit. The automatic stride's doubling bounds the snapshots to fewer than
// 2 * CheckpointPolicy::kAutoWindows entries; an explicit stride keeps
// every capture. Marks are never thinned: those taken before a doubling
// keep their finer spacing.
//
// Thread-safety contract: add()/mark()/halve() are capture operations and
// must not run concurrently with trials; the queries are const and safe to
// call from many trial workers at once.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "fault/engine.h"
#include "ir/category.h"

namespace faultlab::fault {

template <typename SnapshotT>
class CheckpointStore {
 public:
  static constexpr std::uint64_t kNoWindow = InjectorEngine::kNoWindow;

  /// Marks per snapshot window: the mark spacing is the snapshot stride
  /// divided by this, so it scales with both explicit and doubled strides.
  static constexpr std::uint64_t kMarksPerWindow = 8;

  struct Entry {
    SnapshotT snapshot;
    CategoryCounts seen;
  };

  /// A golden position and the category instance counts of its prefix.
  struct Mark {
    std::uint64_t executed = 0;
    CategoryCounts seen;
  };

  /// Spacing of the marks taken at snapshot stride `stride`.
  static std::uint64_t mark_spacing(std::uint64_t stride) noexcept {
    return std::max<std::uint64_t>(stride / kMarksPerWindow, 1);
  }

  /// Appends a snapshot captured at `seen` instance counts.
  void add(SnapshotT&& snapshot, const CategoryCounts& seen) {
    entries_.push_back(Entry{std::move(snapshot), seen});
  }

  /// Appends a mark at golden position `executed`, after every earlier one.
  void mark(std::uint64_t executed, const CategoryCounts& seen) {
    marks_.push_back(Mark{executed, seen});
  }

  /// Drops every other snapshot entry — the first, third, ... — keeping
  /// every second capture: the grid of a stride twice as long, on which
  /// the capture then continues. Marks stay.
  void halve() {
    std::size_t kept = 0;
    for (std::size_t i = 1; i < entries_.size(); i += 2)
      entries_[kept++] = std::move(entries_[i]);
    entries_.resize(kept);
  }

  /// Latest entry whose prefix holds fewer than k `category` instances, or
  /// nullptr (run from scratch).
  const Entry* before(ir::Category category, std::uint64_t k) const {
    return entry_at(index_before(category, k));
  }

  /// Latest mark whose prefix holds fewer than k `category` instances, or
  /// nullptr: where a trial for instance k can wake its hook. Every
  /// snapshot position is also a mark, so the mark is at or after the
  /// snapshot before() returns.
  const Mark* mark_before(ir::Category category, std::uint64_t k) const {
    const auto end =
        std::partition_point(marks_.begin(), marks_.end(), [&](const Mark& m) {
          return m.seen[category] < k;
        });
    return end == marks_.begin() ? nullptr : &*(end - 1);
  }

  /// Index of the entry before() would resume from, or kNoWindow. Used by
  /// the scheduler to group trials sharing a resident snapshot.
  std::uint64_t window_of(ir::Category category, std::uint64_t k) const {
    return window_at(index_before(category, k));
  }

  /// Latest entry captured strictly before dynamic instruction `t`, or
  /// nullptr (run from scratch). The time-triggered analogue of before():
  /// resuming it replays every instruction from `executed` to `t`, so a
  /// hook armed at `t` misses nothing.
  const Entry* before_time(std::uint64_t t) const {
    return entry_at(index_before_time(t));
  }

  /// Index of the entry before_time() would resume from, or kNoWindow.
  std::uint64_t window_of_time(std::uint64_t t) const {
    return window_at(index_before_time(t));
  }

  /// Snapshot of the first entry captured strictly after dynamic
  /// instruction `executed`, or nullptr: the next golden state a trial
  /// standing at `executed` can converge on.
  const SnapshotT* after(std::uint64_t executed) const {
    const auto it = std::upper_bound(
        entries_.begin(), entries_.end(), executed,
        [](std::uint64_t t, const Entry& e) { return t < e.snapshot.executed; });
    return it != entries_.end() ? &it->snapshot : nullptr;
  }

  std::size_t size() const noexcept { return entries_.size(); }
  const std::vector<Mark>& marks() const noexcept { return marks_; }

 private:
  const Entry* entry_at(std::size_t idx) const {
    return idx == entries_.size() ? nullptr : &entries_[idx];
  }
  std::uint64_t window_at(std::size_t idx) const {
    return idx == entries_.size() ? kNoWindow : static_cast<std::uint64_t>(idx);
  }

  /// Index of the latest entry with seen[category] < k, or size(). Entries
  /// are in execution order and seen-counts are monotonic, so the entries
  /// satisfying it form a prefix.
  std::size_t index_before(ir::Category category, std::uint64_t k) const {
    const auto end = std::partition_point(
        entries_.begin(), entries_.end(),
        [&](const Entry& e) { return e.seen[category] < k; });
    return last_of(end);
  }

  /// Index of the latest entry with executed < t, or size(). Same shape as
  /// index_before(): executed counts are strictly increasing.
  std::size_t index_before_time(std::uint64_t t) const {
    const auto end = std::partition_point(
        entries_.begin(), entries_.end(),
        [t](const Entry& e) { return e.snapshot.executed < t; });
    return last_of(end);
  }

  /// Index of the entry before `end`, or size() when `end` is the start.
  std::size_t last_of(typename std::vector<Entry>::const_iterator end) const {
    return end == entries_.begin()
               ? entries_.size()
               : static_cast<std::size_t>(end - entries_.begin()) - 1;
  }

  std::vector<Entry> entries_;
  std::vector<Mark> marks_;
};

/// Completes a run that stopped on golden snapshot `r.converged` (DESIGN
/// §4): the rest would have replayed the golden suffix, so the total is the
/// golden total and the output continues with the golden output past the
/// snapshot's. Returns the golden-suffix instructions that were skipped.
template <typename RunResultT>
std::uint64_t complete_converged(RunResultT& r,
                                 const std::string& golden_output,
                                 std::uint64_t golden_instructions) {
  r.output.append(golden_output, r.converged->runtime.output.size());
  const std::uint64_t suffix = golden_instructions - r.dynamic_instructions;
  r.dynamic_instructions = golden_instructions;
  return suffix;
}

}  // namespace faultlab::fault
