#include "machine/memory.h"

#include <atomic>
#include <cstring>
#include <sstream>

#include "obs/metrics.h"

namespace faultlab::machine {

struct MemoryPage {
  std::uint8_t bytes[Memory::kPageSize];
};

namespace {

/// Counts copy-on-write page clones (writes to pages shared with a
/// snapshot). The clone itself memcpys a whole page, so the counter's cost
/// is noise even when metrics are on; when off it is one cached branch.
void count_cow_clone() {
  if (!obs::metrics_enabled()) return;
  static obs::Counter counter =
      obs::Registry::global().counter("machine.cow_page_clones");
  counter.add();
}

/// Snapshot generation ids. Never reused, so a Memory whose delta base was
/// taken from one snapshot can never mistake another snapshot for it.
std::atomic<std::uint64_t> next_snapshot_id{1};

}  // namespace

const char* trap_kind_name(TrapKind kind) noexcept {
  switch (kind) {
    case TrapKind::UnmappedAccess: return "unmapped-access";
    case TrapKind::DivideByZero: return "divide-by-zero";
    case TrapKind::InvalidJump: return "invalid-jump";
    case TrapKind::StackOverflow: return "stack-overflow";
    case TrapKind::BadFree: return "bad-free";
    case TrapKind::Unreachable: return "unreachable";
  }
  return "?";
}

TrapException::TrapException(TrapKind kind, std::uint64_t address,
                             std::string detail)
    : kind_(kind), address_(address) {
  std::ostringstream os;
  os << "trap: " << trap_kind_name(kind) << " at 0x" << std::hex << address;
  if (!detail.empty()) os << " (" << detail << ")";
  message_ = os.str();
}

void Memory::map_range(std::uint64_t addr, std::uint64_t size) {
  if (size == 0) return;
  const std::uint64_t first = addr >> kPageBits;
  const std::uint64_t last = (addr + size - 1) >> kPageBits;
  for (std::uint64_t p = first; p <= last; ++p) {
    auto& slot = pages_[p];
    if (!slot) {
      slot = std::make_shared<MemoryPage>();
      std::memset(slot->bytes, 0, kPageSize);
      mark_dirty(p);  // page absent from the delta base snapshot
    }
  }
}

bool Memory::is_mapped(std::uint64_t addr) const noexcept {
  return pages_.count(addr >> kPageBits) != 0;
}

void Memory::invalidate_cache() const noexcept {
  cached_page_num_ = kNoCachedPage;
  cached_page_ = nullptr;
  cached_writable_ = false;
}

const MemoryPage* Memory::page_for(std::uint64_t addr) const {
  const std::uint64_t page_num = addr >> kPageBits;
  if (page_num == cached_page_num_) return cached_page_;
  auto it = pages_.find(page_num);
  if (it == pages_.end())
    throw TrapException(TrapKind::UnmappedAccess, addr);
  cached_page_num_ = page_num;
  cached_page_ = it->second.get();
  // Exclusively owned pages can later be written through the cache without
  // a copy-on-write check. Sharers only appear via snapshot()/restore()/
  // restore_delta(), all of which clear the writable flag (or invalidate
  // the affected entry outright), so the flag cannot go stale.
  cached_writable_ = it->second.use_count() == 1;
  return cached_page_;
}

MemoryPage* Memory::mutable_page_for(std::uint64_t addr) {
  const std::uint64_t page_num = addr >> kPageBits;
  if (page_num == cached_page_num_ && cached_writable_) return cached_page_;
  auto it = pages_.find(page_num);
  if (it == pages_.end())
    throw TrapException(TrapKind::UnmappedAccess, addr);
  PageRef& ref = it->second;
  if (ref.use_count() > 1) {
    // Shared with a snapshot (or with a sibling restored from one): clone
    // before the write so the snapshot keeps its contents.
    auto clone = std::make_shared<MemoryPage>();
    std::memcpy(clone->bytes, ref->bytes, kPageSize);
    ref = std::move(clone);
    mark_dirty(page_num);
    count_cow_clone();
  }
  cached_page_num_ = page_num;
  cached_page_ = ref.get();
  cached_writable_ = true;
  return cached_page_;
}

std::uint64_t Memory::read(std::uint64_t addr, unsigned size) const {
  const std::uint64_t offset = addr & (kPageSize - 1);
  if (offset + size <= kPageSize) {
    const MemoryPage* page = page_for(addr);
    std::uint64_t value = 0;
    std::memcpy(&value, page->bytes + offset, size);  // little-endian host
    return value;
  }
  // Page-straddling access.
  std::uint8_t buf[8] = {0};
  read_bytes(addr, buf, size);
  std::uint64_t value = 0;
  std::memcpy(&value, buf, size);
  return value;
}

void Memory::write(std::uint64_t addr, unsigned size, std::uint64_t value) {
  const std::uint64_t offset = addr & (kPageSize - 1);
  if (offset + size <= kPageSize) {
    MemoryPage* page = mutable_page_for(addr);
    std::memcpy(page->bytes + offset, &value, size);
    return;
  }
  std::uint8_t buf[8];
  std::memcpy(buf, &value, sizeof buf);
  write_bytes(addr, buf, size);
}

void Memory::write_bytes(std::uint64_t addr, const std::uint8_t* data,
                         std::uint64_t size) {
  while (size > 0) {
    const std::uint64_t offset = addr & (kPageSize - 1);
    const std::uint64_t chunk = std::min(size, kPageSize - offset);
    MemoryPage* page = mutable_page_for(addr);
    std::memcpy(page->bytes + offset, data, chunk);
    addr += chunk;
    data += chunk;
    size -= chunk;
  }
}

void Memory::read_bytes(std::uint64_t addr, std::uint8_t* out,
                        std::uint64_t size) const {
  while (size > 0) {
    const std::uint64_t offset = addr & (kPageSize - 1);
    const std::uint64_t chunk = std::min(size, kPageSize - offset);
    const MemoryPage* page = page_for(addr);
    std::memcpy(out, page->bytes + offset, chunk);
    addr += chunk;
    out += chunk;
    size -= chunk;
  }
}

void Memory::reset() {
  pages_.clear();
  invalidate_cache();
  // The image no longer derives from any snapshot: disarm delta tracking
  // so the next restore_delta() falls back to a full restore.
  delta_base_ = 0;
  dirty_.clear();
}

Memory::Snapshot Memory::snapshot() {
  Snapshot snap;
  snap.pages_ = pages_;  // shares every page: O(mapped pages), not O(bytes)
  snap.id_ = next_snapshot_id.fetch_add(1, std::memory_order_relaxed);
  // Every page is now shared, so nothing is writable — but the cached
  // pointer itself is still the right mapping for reads.
  cached_writable_ = false;
  return snap;
}

void Memory::restore(const Snapshot& snapshot) {
  pages_ = snapshot.pages_;
  invalidate_cache();
  // The image now equals `snapshot` exactly; from here it can only diverge
  // through CoW clones and map_range() creations, which mark_dirty()
  // records against this base.
  delta_base_ = snapshot.id_;
  dirty_.clear();
}

Memory::RestoreStats Memory::restore_delta(const Snapshot& snapshot) {
  if (delta_base_ == 0 || delta_base_ != snapshot.id_) {
    restore(snapshot);
    return {pages_.size(), false};
  }
  std::size_t touched = 0;
  for (const std::uint64_t page_num : dirty_) {
    auto snap_it = snapshot.pages_.find(page_num);
    if (snap_it == snapshot.pages_.end()) {
      pages_.erase(page_num);
    } else {
      pages_[page_num] = snap_it->second;  // re-share the snapshot's page
    }
    ++touched;
    // Precise cache invalidation: only a dirty page's mapping changed.
    if (page_num == cached_page_num_) invalidate_cache();
  }
  dirty_.clear();
  return {touched, true};
}

bool Memory::same_image(const Snapshot& snapshot) const {
  if (pages_.size() != snapshot.pages_.size()) return false;
  const auto same_page = [&snapshot](std::uint64_t page_num,
                                     const PageRef& page) {
    const auto it = snapshot.pages_.find(page_num);
    return it != snapshot.pages_.end() &&
           (it->second == page ||
            std::memcmp(it->second->bytes, page->bytes, kPageSize) == 0);
  };
  for (const std::uint64_t page_num : dirty_) {
    const auto it = pages_.find(page_num);
    if (it != pages_.end() && !same_page(page_num, it->second)) return false;
  }
  for (const auto& [page_num, page] : pages_)
    if (!same_page(page_num, page)) return false;
  return true;
}

void PageShadowSet::taint(std::uint64_t addr, std::uint64_t size,
                          std::uint32_t depth) {
  if (size == 0) size = 1;
  const std::uint64_t first = addr >> Memory::kPageBits;
  const std::uint64_t last = (addr + size - 1) >> Memory::kPageBits;
  for (std::uint64_t page = first; page <= last; ++page) {
    auto [it, inserted] = pages_.emplace(page, depth);
    if (!inserted && depth < it->second) it->second = depth;
  }
}

bool PageShadowSet::tainted(std::uint64_t addr, std::uint64_t size,
                            std::uint32_t* depth) const noexcept {
  if (pages_.empty()) return false;
  if (size == 0) size = 1;
  const std::uint64_t first = addr >> Memory::kPageBits;
  const std::uint64_t last = (addr + size - 1) >> Memory::kPageBits;
  bool hit = false;
  std::uint32_t best = 0;
  for (std::uint64_t page = first; page <= last; ++page) {
    const auto it = pages_.find(page);
    if (it == pages_.end()) continue;
    if (!hit || it->second < best) best = it->second;
    hit = true;
  }
  if (hit && depth != nullptr) *depth = best;
  return hit;
}

}  // namespace faultlab::machine
