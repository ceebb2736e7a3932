// Sparse paged memory shared by the IR interpreter and the x86 simulator.
//
// Both engines run programs in the same 64-bit address space with the same
// layout, so a bit-flip that lands in a pointer has a comparable
// probability of hitting unmapped memory (and thus crashing) at both
// levels — any crash-rate difference between LLFI and PINFI then stems
// from the IR<->assembly mapping, which is what the paper measures.
//
// Pages are reference-counted so a whole address space can be snapshotted
// in O(mapped pages): Memory::snapshot() shares every page with the
// returned Snapshot, and the first write to a shared page clones it
// (copy-on-write). restore() rebuilds the page table from a snapshot the
// same way, which is what lets an injection trial resume from the middle
// of the golden run instead of re-executing the fault-free prefix.
//
// restore_delta() goes one step further: after a restore the image equals
// the snapshot exactly, and it can only diverge through a CoW clone, a
// map_range() that creates a page, or reset(). Memory records the first
// two in a compact dirty-set, so restoring the *same* snapshot again only
// has to re-share the dirty pages — O(pages the trial touched), not
// O(mapped pages).
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "machine/trap.h"

namespace faultlab::machine {

/// Address-space layout (all engines use these constants).
struct Layout {
  static constexpr std::uint64_t kGlobalBase = 0x0001'0000;
  static constexpr std::uint64_t kHeapBase = 0x0100'0000;
  static constexpr std::uint64_t kHeapLimit = 0x0800'0000;  // 112 MiB heap
  static constexpr std::uint64_t kStackTop = 0x7fff'0000;
  static constexpr std::uint64_t kStackSize = 4ull << 20;  // 4 MiB
  static constexpr std::uint64_t kStackLimit = kStackTop - kStackSize;
  /// Simulated code addresses live here (x86 simulator instruction index
  /// scaled by 16); data accesses to this region trap.
  static constexpr std::uint64_t kCodeBase = 0x0040'0000'0000;
};

class Memory {
 public:
  static constexpr std::uint64_t kPageBits = 12;
  static constexpr std::uint64_t kPageSize = 1ull << kPageBits;

  /// Copy-on-write image of a whole address space. Cheap to copy (shares
  /// pages) and safe to restore from concurrently: page reference counts
  /// are atomic and the snapshot itself is never mutated.
  class Snapshot {
   public:
    std::size_t mapped_pages() const noexcept { return pages_.size(); }
    /// Process-unique generation id assigned by Memory::snapshot().
    /// Copies share the id (they share the same immutable page table);
    /// a default-constructed Snapshot has id 0, which never matches a
    /// delta base.
    std::uint64_t id() const noexcept { return id_; }

   private:
    friend class Memory;
    std::unordered_map<std::uint64_t, std::shared_ptr<struct MemoryPage>>
        pages_;
    std::uint64_t id_ = 0;
  };

  /// What a restore_delta() call actually did, for checkpoint metrics.
  struct RestoreStats {
    std::size_t pages = 0;  ///< page-table entries rewritten
    bool delta = false;     ///< true if only the dirty set was walked
  };

  Memory() = default;
  Memory(const Memory&) = delete;
  Memory& operator=(const Memory&) = delete;

  /// Maps all pages covering [addr, addr+size) as zero-filled. Already
  /// mapped pages keep their contents.
  void map_range(std::uint64_t addr, std::uint64_t size);
  bool is_mapped(std::uint64_t addr) const noexcept;

  /// Little-endian scalar access; size in {1,2,4,8}. Traps on unmapped.
  std::uint64_t read(std::uint64_t addr, unsigned size) const;
  void write(std::uint64_t addr, unsigned size, std::uint64_t value);

  /// Bulk access (still traps on unmapped pages).
  void write_bytes(std::uint64_t addr, const std::uint8_t* data,
                   std::uint64_t size);
  void read_bytes(std::uint64_t addr, std::uint8_t* out,
                  std::uint64_t size) const;

  /// Releases every mapping (used between trials).
  void reset();

  /// O(mapped pages) copy-on-write capture of the current image. After the
  /// call every page is shared: the next write to each clones it first.
  Snapshot snapshot();
  /// Replaces the current image with the snapshot's (copy-on-write: pages
  /// stay shared until written). Also arms dirty-page tracking with the
  /// snapshot as the delta base, so a later restore_delta() of the same
  /// snapshot is O(pages written since).
  void restore(const Snapshot& snapshot);
  /// Equivalent to restore(), but when the image already derives from this
  /// exact snapshot (same id as the last restore, no reset() since) it only
  /// re-shares the pages recorded dirty. Falls back to a full restore on
  /// first use, after reset(), or on a base mismatch.
  RestoreStats restore_delta(const Snapshot& snapshot);
  /// True when the image holds exactly the snapshot's pages: the same
  /// page numbers with the same bytes. Pages still shared with the
  /// snapshot compare by pointer; only the others are memcmp'ed, dirty
  /// pages first, since a page that differs is usually one of them.
  bool same_image(const Snapshot& snapshot) const;

  std::size_t mapped_pages() const noexcept { return pages_.size(); }
  /// Pages diverged from the current delta base (0 when tracking is
  /// disarmed). Exposed for tests and the dirty-set histogram.
  std::size_t dirty_pages() const noexcept { return dirty_.size(); }
  /// Snapshot id the dirty set is relative to (0 = none; next
  /// restore_delta() will be a full restore).
  std::uint64_t delta_base() const noexcept { return delta_base_; }

 private:
  using PageRef = std::shared_ptr<MemoryPage>;

  const MemoryPage* page_for(std::uint64_t addr) const;
  MemoryPage* mutable_page_for(std::uint64_t addr);
  void invalidate_cache() const noexcept;
  void mark_dirty(std::uint64_t page_num) {
    if (delta_base_ != 0) dirty_.push_back(page_num);
  }

  std::unordered_map<std::uint64_t, PageRef> pages_;

  // Pages whose mapping diverged from the `delta_base_` snapshot: CoW
  // clones plus pages newly created by map_range(). Only maintained while
  // a delta base is armed (delta_base_ != 0), so golden runs pay nothing.
  // May rarely hold duplicates (a page re-cloned after an interleaved
  // snapshot()); restore_delta() assignments are idempotent so that is
  // harmless.
  std::vector<std::uint64_t> dirty_;
  std::uint64_t delta_base_ = 0;

  // Single-entry last-page cache: scalar accesses overwhelmingly hit the
  // same page as their predecessor (stack slots, hot globals), so the
  // common path skips the hash lookup. `cached_writable_` additionally
  // records that the page is exclusively owned, i.e. writable without a
  // copy-on-write check. Invalidated wholesale by reset()/restore();
  // snapshot() only demotes it to read-only (the pointer stays valid) and
  // restore_delta() invalidates it precisely — only when the cached page
  // is in the dirty set being rewritten.
  static constexpr std::uint64_t kNoCachedPage = ~std::uint64_t{0};
  mutable std::uint64_t cached_page_num_ = kNoCachedPage;
  mutable MemoryPage* cached_page_ = nullptr;
  mutable bool cached_writable_ = false;
};

/// Page-granular taint shadow over a simulated address space, used by the
/// propagation tracer (obs/propagation.h). Maps page number -> def-use
/// depth of the shallowest tainted store into the page; both engines share
/// the one implementation because they share Memory's page geometry.
/// Deliberately coarse: a tainted store marks its whole page(s), and an
/// untainted store never clears (page granularity cannot distinguish
/// bytes), so memory taint is a conservative over-approximation.
class PageShadowSet {
 public:
  /// Marks every page covering [addr, addr+size); keeps the shallowest
  /// depth when a page is already tainted.
  void taint(std::uint64_t addr, std::uint64_t size, std::uint32_t depth);
  /// True when any page covering [addr, addr+size) is tainted; writes the
  /// shallowest covering depth to *depth when provided.
  bool tainted(std::uint64_t addr, std::uint64_t size,
               std::uint32_t* depth = nullptr) const noexcept;
  std::size_t pages() const noexcept { return pages_.size(); }
  void clear() noexcept { pages_.clear(); }

 private:
  std::unordered_map<std::uint64_t, std::uint32_t> pages_;
};

}  // namespace faultlab::machine
