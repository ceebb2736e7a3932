#include "obs/events.h"

#include <cstdio>
#include <cstdlib>

#include "obs/export.h"
#include "obs/propagation.h"
#include "support/env.h"

namespace faultlab::obs {

namespace {

/// Small sequential id for the calling thread (1, 2, 3, ... in first-use
/// order): picks the thread's shard.
std::uint32_t current_thread_id() noexcept {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t id =
      next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

/// Appends `value` as a JSON string (quoted, escaped) or null.
void append_string(std::string& out, const char* value) {
  if (value == nullptr) {
    out += "null";
    return;
  }
  out += '"';
  out += json_escape(value);
  out += '"';
}

void append_u64(std::string& out, std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%llu",
                static_cast<unsigned long long>(value));
  out += buf;
}

}  // namespace

const char* EventLog::env_path() noexcept {
  static const char* const path = [] {
    const char* env = support::parse_env_string("FAULTLAB_EVENTS");
    if (env != nullptr && env[0] == '0' && env[1] == '\0')
      return static_cast<const char*>(nullptr);  // explicit off switch
    return env;
  }();
  return path;
}

bool events_enabled() noexcept { return EventLog::env_path() != nullptr; }

EventLog& EventLog::global() {
  static EventLog* const log = [] {
    auto* instance = new EventLog();
    if (const char* path = env_path()) instance->open(path);
    std::atexit([] { EventLog::global().flush(); });
    return instance;
  }();
  return *log;
}

EventLog::~EventLog() { close(); }

bool EventLog::open(const std::string& path) {
  std::lock_guard<std::mutex> lock(file_mutex_);
  if (file_ != nullptr) {
    std::fclose(static_cast<std::FILE*>(file_));
    file_ = nullptr;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write event log to '%s'\n",
                 path.c_str());
    enabled_.store(false, std::memory_order_relaxed);
    return false;
  }
  file_ = f;
  opened_ = std::chrono::steady_clock::now();
  appended_.store(0, std::memory_order_relaxed);
  enabled_.store(true, std::memory_order_relaxed);
  return true;
}

void EventLog::close() {
  if (!enabled()) {
    // Never opened (or already closed): nothing buffered, nothing to do.
    std::lock_guard<std::mutex> lock(file_mutex_);
    if (file_ != nullptr) {
      std::fclose(static_cast<std::FILE*>(file_));
      file_ = nullptr;
    }
    return;
  }
  enabled_.store(false, std::memory_order_relaxed);
  flush();
  std::lock_guard<std::mutex> lock(file_mutex_);
  if (file_ != nullptr) {
    std::fclose(static_cast<std::FILE*>(file_));
    file_ = nullptr;
  }
}

std::uint64_t EventLog::micros_since_open(
    std::chrono::steady_clock::time_point t) const noexcept {
  if (t <= opened_) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(t - opened_)
          .count());
}

void EventLog::write_locked(const std::string& data) {
  if (data.empty()) return;
  std::lock_guard<std::mutex> lock(file_mutex_);
  if (file_ == nullptr) return;
  std::fwrite(data.data(), 1, data.size(), static_cast<std::FILE*>(file_));
  std::fflush(static_cast<std::FILE*>(file_));
}

void EventLog::flush() {
  for (Shard& shard : shards_) {
    std::string out;
    {
      std::lock_guard<std::mutex> lock(shard.mutex);
      out.swap(shard.buffer);
    }
    write_locked(out);
  }
}

void EventLog::append(const TrialEvent& e) {
  if (!enabled()) return;
  Shard& shard = shards_[(current_thread_id() - 1) % kNumShards];
  std::string spill;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    std::string& out = shard.buffer;
    out += e.prop != nullptr ? "{\"v\":2,\"app\":" : "{\"v\":1,\"app\":";
    append_string(out, e.app);
    out += ",\"tool\":";
    append_string(out, e.tool);
    out += ",\"category\":";
    append_string(out, e.category);
    out += ",\"fault_model\":";
    append_string(out, e.fault_model);
    out += ",\"run\":";
    append_u64(out, e.run);
    out += ",\"worker\":";
    append_u64(out, e.worker);
    out += ",\"seq\":";
    append_u64(out, e.seq);
    out += ",\"trial\":";
    append_u64(out, e.trial);
    out += ",\"k\":";
    append_u64(out, e.k);
    out += ",\"bit\":";
    append_u64(out, e.bit);
    out += ",\"site\":";
    append_u64(out, e.static_site);
    out += ",\"opcode\":";
    append_string(out, e.opcode);
    out += ",\"function\":";
    append_string(out, e.function);
    out += ",\"injected\":";
    out += e.injected ? "true" : "false";
    out += ",\"activated\":";
    out += e.activated ? "true" : "false";
    out += ",\"outcome\":";
    append_string(out, e.outcome);
    out += ",\"trap\":";
    append_string(out, e.trap);
    if (e.trap != nullptr) {
      out += ",\"trap_pc\":";
      append_u64(out, e.trap_pc);
    }
    out += ",\"inject_instruction\":";
    append_u64(out, e.inject_instruction);
    out += ",\"instructions_total\":";
    append_u64(out, e.instructions_total);
    out += ",\"instructions_after_injection\":";
    append_u64(out, e.instructions_after_injection);
    out += ",\"checkpoint\":";
    append_string(out, e.checkpoint_hit ? "hit" : "miss");
    out += ",\"latency_ms\":";
    char latency[32];
    std::snprintf(latency, sizeof latency, "%.6f", e.latency_ms);
    out += latency;
    out += ",\"start_us\":";
    append_u64(out, e.start_us);
    out += ",\"restore_us\":";
    append_u64(out, e.restore_us);
    out += ",\"execute_us\":";
    append_u64(out, e.execute_us);
    out += ",\"classify_us\":";
    append_u64(out, e.classify_us);
    if (e.prop != nullptr) {
      // Schema v2: the per-trial propagation summary, additive — every v1
      // field above is emitted unchanged, in the same order.
      const PropSummary& p = *e.prop;
      out += ",\"prop\":{\"traced\":";
      out += p.traced ? "true" : "false";
      out += ",\"depth\":";
      append_u64(out, p.depth);
      out += ",\"fanout\":";
      append_u64(out, p.fanout);
      out += ",\"tainted_reads\":";
      append_u64(out, p.tainted_reads);
      out += ",\"masking_events\":";
      append_u64(out, p.masking_events);
      out += ",\"store_load_edges\":";
      append_u64(out, p.store_load_edges);
      out += ",\"tainted_stores\":";
      append_u64(out, p.tainted_stores);
      out += ",\"tainted_branches\":";
      append_u64(out, p.tainted_branches);
      out += ",\"peak_tainted_values\":";
      append_u64(out, p.peak_tainted_values);
      out += ",\"peak_tainted_pages\":";
      append_u64(out, p.peak_tainted_pages);
      out += ",\"diverged\":";
      out += p.diverged ? "true" : "false";
      out += ",\"divergence_pc\":";
      append_u64(out, p.divergence_pc);
      out += ",\"divergence_offset\":";
      append_u64(out, p.divergence_offset);
      out += '}';
    }
    out += "}\n";
    if (out.size() >= kFlushBytes) spill.swap(out);
  }
  appended_.fetch_add(1, std::memory_order_relaxed);
  // The spill write happens outside the shard lock: other threads keep
  // appending to their shards while this one drains to the file.
  write_locked(spill);
}

}  // namespace faultlab::obs
