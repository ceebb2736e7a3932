// Observability tests: metrics registry (sharded counters/histograms merge
// exactly under concurrency, log2 bucket boundaries, percentile
// interpolation), span tracing (bounded ring, sort order, RAII spans), and
// the Chrome-trace/JSONL exporters — including the guarantee that the
// disabled path records nothing and never allocates.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>
#include <string_view>
#include <thread>

#include "driver/pipeline.h"
#include "fault/llfi.h"
#include "fault/scheduler.h"
#include "obs/events.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"

// Global allocation counter backing the no-allocation test below. Every
// operator new in this binary bumps it; the test snapshots the counter
// around the disabled-tracer path and expects a zero delta.
namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace faultlab::obs {
namespace {

TEST(Metrics, ConcurrentCounterIncrementsSumExactly) {
  Registry registry;
  Counter counter = registry.counter("trials");
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 20'000;
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < kThreads; ++t)
    pool.emplace_back([&counter] {
      for (std::size_t i = 0; i < kPerThread; ++i) counter.add();
    });
  for (std::thread& th : pool) th.join();
  counter.add(5);  // weighted add on the main thread's shard
  const MetricsSnapshot snap = registry.snapshot();
  ASSERT_NE(snap.counter("trials"), nullptr);
  EXPECT_EQ(snap.counter("trials")->value, kThreads * kPerThread + 5);
}

TEST(Metrics, HistogramBucketBoundaries) {
  // Bucket index is the bit width: 0 -> 0, 1 -> 1, [2,3] -> 2, and bucket
  // b holds [2^(b-1), 2^b - 1].
  EXPECT_EQ(HistogramSnapshot::bucket_of(0), 0u);
  EXPECT_EQ(HistogramSnapshot::bucket_of(1), 1u);
  EXPECT_EQ(HistogramSnapshot::bucket_of(2), 2u);
  EXPECT_EQ(HistogramSnapshot::bucket_of(3), 2u);
  EXPECT_EQ(HistogramSnapshot::bucket_of(4), 3u);
  EXPECT_EQ(HistogramSnapshot::bucket_of(1023), 10u);
  EXPECT_EQ(HistogramSnapshot::bucket_of(1024), 11u);
  EXPECT_EQ(HistogramSnapshot::bucket_of(~0ull), 64u);
  for (unsigned b = 0; b < HistogramSnapshot::kBuckets; ++b) {
    const std::uint64_t lo = HistogramSnapshot::bucket_lo(b);
    const std::uint64_t hi = HistogramSnapshot::bucket_hi(b);
    EXPECT_LE(lo, hi) << "bucket " << b;
    EXPECT_EQ(HistogramSnapshot::bucket_of(lo), b);
    EXPECT_EQ(HistogramSnapshot::bucket_of(hi), b);
  }
}

TEST(Metrics, HistogramExactStatsAndConcurrentMerge) {
  Registry registry;
  Histogram hist = registry.histogram("latency");
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 5'000;
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < kThreads; ++t)
    pool.emplace_back([&hist, t] {
      for (std::size_t i = 0; i < kPerThread; ++i)
        hist.record(t * 100 + 7);  // distinct per-thread constants
    });
  for (std::thread& th : pool) th.join();
  const MetricsSnapshot snap = registry.snapshot();
  const auto* entry = snap.histogram("latency");
  ASSERT_NE(entry, nullptr);
  const HistogramSnapshot& h = entry->hist;
  EXPECT_EQ(h.count, kThreads * kPerThread);
  std::uint64_t expected_sum = 0;
  for (std::size_t t = 0; t < kThreads; ++t)
    expected_sum += (t * 100 + 7) * kPerThread;
  EXPECT_EQ(h.sum, expected_sum);
  EXPECT_EQ(h.min, 7u);
  EXPECT_EQ(h.max, 307u);
  EXPECT_DOUBLE_EQ(h.mean(), static_cast<double>(expected_sum) /
                                 static_cast<double>(h.count));
  std::uint64_t bucket_total = 0;
  for (std::uint64_t b : h.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, h.count);
}

TEST(Metrics, HistogramPercentileInterpolationAndClamping) {
  Registry registry;
  Histogram hist = registry.histogram("h");
  // Constant data: every percentile is the constant, thanks to the
  // [min, max] clamp (bucket interpolation alone would smear it).
  for (int i = 0; i < 100; ++i) hist.record(42);
  HistogramSnapshot h = registry.snapshot().histogram("h")->hist;
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 42.0);
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 42.0);
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 42.0);

  Registry registry2;
  Histogram spread = registry2.histogram("h");
  for (int i = 0; i < 90; ++i) spread.record(10);     // bucket 4
  for (int i = 0; i < 10; ++i) spread.record(5000);   // bucket 13
  h = registry2.snapshot().histogram("h")->hist;
  EXPECT_GE(h.percentile(50.0), 10.0);
  EXPECT_LT(h.percentile(50.0), 16.0);  // inside bucket_of(10)'s range
  EXPECT_GE(h.percentile(99.0), 4096.0);
  EXPECT_LE(h.percentile(99.0), 5000.0);  // clamped to the observed max
  EXPECT_LE(h.percentile(50.0), h.percentile(95.0));
  EXPECT_LE(h.percentile(95.0), h.percentile(99.0));
  // Empty histogram reports zeros.
  Registry registry3;
  registry3.histogram("empty");
  EXPECT_DOUBLE_EQ(
      registry3.snapshot().histogram("empty")->hist.percentile(50.0), 0.0);
}

TEST(Metrics, PercentileSortedLinearInterpolation) {
  const std::vector<double> sorted{10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(percentile_sorted(sorted, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(sorted, 100.0), 40.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(sorted, 50.0), 25.0);  // rank 1.5
  EXPECT_DOUBLE_EQ(percentile_sorted(sorted, 25.0), 17.5);  // rank 0.75
  EXPECT_DOUBLE_EQ(percentile_sorted({7.0}, 99.0), 7.0);
  EXPECT_DOUBLE_EQ(percentile_sorted({}, 50.0), 0.0);
}

TEST(Metrics, RegistrationIsIdempotentAndKindChecked) {
  Registry registry;
  Counter a = registry.counter("x");
  Counter b = registry.counter("x");  // same metric, second handle
  a.add(2);
  b.add(3);
  EXPECT_EQ(registry.snapshot().counter("x")->value, 5u);
  EXPECT_THROW(registry.gauge("x"), std::logic_error);
  EXPECT_THROW(registry.histogram("x"), std::logic_error);

  Gauge g = registry.gauge("stride");
  g.set(500);
  g.add(-100);
  EXPECT_EQ(registry.snapshot().gauge("stride")->value, 400);
  // Default-constructed handles are inert, not crashes.
  Counter{}.add();
  Gauge{}.set(1);
  Histogram{}.record(1);
}

TEST(Metrics, RegistryGrowsPastTheOldFixedSlotCap) {
  // 20 histograms need ~1380 cells — past the 1024 cells a shard used to
  // hold in one fixed array. Segments must grow on demand and every handle
  // must keep pointing at its own cells.
  Registry registry;
  std::vector<Histogram> hists;
  for (int i = 0; i < 20; ++i)
    hists.push_back(registry.histogram("h" + std::to_string(i)));
  Counter late = registry.counter("late");  // lands in a grown segment
  for (int i = 0; i < 20; ++i)
    hists[static_cast<std::size_t>(i)].record(
        static_cast<std::uint64_t>(i + 1));
  late.add(7);

  const MetricsSnapshot snap = registry.snapshot();
  for (int i = 0; i < 20; ++i) {
    const auto* entry = snap.histogram("h" + std::to_string(i));
    ASSERT_NE(entry, nullptr) << i;
    EXPECT_EQ(entry->hist.count, 1u) << i;
    EXPECT_EQ(entry->hist.sum, static_cast<std::uint64_t>(i + 1)) << i;
  }
  EXPECT_EQ(snap.counter("late")->value, 7u);
}

TEST(Metrics, ConcurrentWritesRaceSegmentCreation) {
  // Threads hammering a metric in a not-yet-materialized segment race the
  // lazy CAS publish; exactly one segment must win and no increment may be
  // lost.
  Registry registry;
  for (int i = 0; i < 200; ++i)
    registry.counter("pad" + std::to_string(i));  // push past segment 0
  Counter counter = registry.counter("hot");
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 10'000;
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < kThreads; ++t)
    pool.emplace_back([&counter] {
      for (std::size_t i = 0; i < kPerThread; ++i) counter.add();
    });
  for (std::thread& th : pool) th.join();
  EXPECT_EQ(registry.snapshot().counter("hot")->value, kThreads * kPerThread);
}

TEST(Metrics, RegistryCellCapacityStillBounded) {
  // The dynamic segments raise the ceiling (128 cells x 1024 segments), but
  // a runaway registration loop must still hit a wall, not OOM.
  Registry registry;
  bool threw = false;
  try {
    for (int i = 0; i < 3000; ++i)  // 3000 histograms > 131072 cells
      registry.histogram("h" + std::to_string(i));
  } catch (const std::length_error&) {
    threw = true;
  }
  EXPECT_TRUE(threw);
}

TEST(Trace, RingOverwritesOldestAndCountsDropped) {
  Tracer tracer(4);
  tracer.set_enabled(true);
  for (std::uint64_t i = 0; i < 6; ++i) {
    Span s;
    s.name = "s";
    s.start_us = i;
    tracer.record(std::move(s));
  }
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.dropped(), 2u);
  const std::vector<Span> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans.front().start_us, 2u);  // oldest two were overwritten
  EXPECT_EQ(spans.back().start_us, 5u);
  tracer.clear();
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(Trace, SpansSortParentsBeforeChildrenOnTies) {
  Tracer tracer;
  tracer.set_enabled(true);
  Span child;
  child.name = "child";
  child.start_us = 100;
  child.dur_us = 10;
  tracer.record(std::move(child));
  Span parent;
  parent.name = "parent";
  parent.start_us = 100;
  parent.dur_us = 50;
  tracer.record(std::move(parent));
  const std::vector<Span> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_STREQ(spans[0].name, "parent");  // longer span first on ties
  EXPECT_STREQ(spans[1].name, "child");
}

TEST(Trace, ScopedSpanRecordsNameTagsAndNesting) {
  Tracer tracer;
  tracer.set_enabled(true);
  {
    ScopedSpan outer(tracer, "trial", "scheduler");
    ASSERT_TRUE(outer.active());
    outer.tag("app", std::string_view("mcf"));
    outer.tag("outcome", "SDC");
    outer.tag("k", std::uint64_t{42});
    ScopedSpan inner(tracer, "execute", "phase");
    inner.finish();
    inner.finish();  // idempotent
  }
  const std::vector<Span> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 2u);
  // The outer span starts no later and lives at least as long, so the sort
  // puts it first.
  EXPECT_STREQ(spans[0].name, "trial");
  EXPECT_STREQ(spans[1].name, "execute");
  EXPECT_LE(spans[0].start_us, spans[1].start_us);
  EXPECT_GE(spans[0].start_us + spans[0].dur_us,
            spans[1].start_us + spans[1].dur_us);
  ASSERT_EQ(spans[0].tags.size(), 3u);
  EXPECT_EQ(spans[0].tags[0].first, "app");
  EXPECT_EQ(spans[0].tags[0].second, "mcf");
  EXPECT_EQ(spans[0].tags[2].second, "42");
}

TEST(Trace, DisabledPathRecordsNothingAndNeverAllocates) {
  Tracer tracer;  // disabled by default
  bool any_active = false;
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 100; ++i) {
    ScopedSpan span(tracer, "trial", "scheduler");
    any_active |= span.active();
    span.tag("app", std::string_view("mcf"));
    span.tag("outcome", "SDC");
    span.tag("k", std::uint64_t{12345});
    span.finish();
  }
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_FALSE(any_active);
  EXPECT_EQ(after - before, 0u);
  EXPECT_EQ(tracer.size(), 0u);
}

std::vector<Span> sample_spans() {
  std::vector<Span> spans;
  Span a;
  a.name = "trial";
  a.cat = "scheduler";
  a.start_us = 10;
  a.dur_us = 90;
  a.tid = 1;
  a.tags.emplace_back("app", "mcf");
  a.tags.emplace_back("note", "quote\" back\\slash\nline");
  spans.push_back(std::move(a));
  Span b;
  b.name = "execute";
  b.cat = "phase";
  b.start_us = 20;
  b.dur_us = 70;
  b.tid = 1;
  spans.push_back(std::move(b));
  return spans;
}

TEST(Export, ChromeTraceShapeAndEscaping) {
  std::ostringstream os;
  write_chrome_trace(sample_spans(), os);
  const std::string json = os.str();
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"trial\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"scheduler\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"app\":\"mcf\""), std::string::npos);
  // Control characters and quotes escaped, never raw (the only literal
  // newlines are the one-event-per-line separators).
  EXPECT_NE(json.find("quote\\\" back\\\\slash\\nline"), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
}

TEST(Export, JsonlOneObjectPerLine) {
  std::ostringstream os;
  write_spans_jsonl(sample_spans(), os);
  std::istringstream in(os.str());
  std::size_t lines = 0;
  for (std::string line; std::getline(in, line); ++lines) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
  }
  EXPECT_EQ(lines, 2u);
  EXPECT_NE(os.str().find("\"ts_us\":10"), std::string::npos);
  EXPECT_NE(os.str().find("\"dur_us\":90"), std::string::npos);
}

TEST(Export, JsonEscape) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(Export, ExportTraceSelectsFormatBySuffix) {
  Tracer tracer;
  tracer.set_enabled(true);
  for (Span& s : sample_spans()) tracer.record(std::move(s));
  const std::string dir = ::testing::TempDir();
  const std::string chrome_path = dir + "/obs_test_trace.json";
  const std::string jsonl_path = dir + "/obs_test_trace.jsonl";
  ASSERT_TRUE(export_trace(tracer, chrome_path));
  ASSERT_TRUE(export_trace(tracer, jsonl_path));
  std::stringstream chrome, jsonl;
  chrome << std::ifstream(chrome_path).rdbuf();
  jsonl << std::ifstream(jsonl_path).rdbuf();
  EXPECT_EQ(chrome.str().rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_EQ(jsonl.str().rfind("{\"name\":", 0), 0u);
  EXPECT_FALSE(export_trace(tracer, dir + "/no/such/dir/trace.json"));
  std::remove(chrome_path.c_str());
  std::remove(jsonl_path.c_str());
}

TEST(Export, MetricsJsonIncludesStatsAndSparseBuckets) {
  Registry registry;
  registry.counter("checkpoint.restores").add(12);
  registry.gauge("stride").set(500);
  Histogram h = registry.histogram("vm.run_instructions");
  for (int i = 0; i < 10; ++i) h.record(1000);
  const std::string json = metrics_json(registry.snapshot());
  EXPECT_NE(json.find("\"checkpoint.restores\": 12"), std::string::npos);
  EXPECT_NE(json.find("\"stride\": 500"), std::string::npos);
  EXPECT_NE(json.find("\"vm.run_instructions\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 10"), std::string::npos);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line))
    if (!line.empty()) lines.push_back(line);
  return lines;
}

// Extracts the integer following `"key":` in a serialized event line.
std::uint64_t field_u64(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t pos = line.find(needle);
  EXPECT_NE(pos, std::string::npos) << key << " missing in: " << line;
  return std::strtoull(line.c_str() + pos + needle.size(), nullptr, 10);
}

TEST(Events, MultiThreadedRoundTripSpillsWholeLines) {
  const std::string path = "events_roundtrip_test.jsonl";
  EventLog log;
  ASSERT_TRUE(log.open(path));
  // 4 writers x 256 records at ~300 bytes each pushes every shard past the
  // 64KB spill threshold several times, so the test covers both the
  // buffered and the mid-run spill paths.
  constexpr std::uint32_t kThreads = 4;
  constexpr std::uint64_t kPerThread = 256;
  std::vector<std::thread> pool;
  for (std::uint32_t t = 0; t < kThreads; ++t)
    pool.emplace_back([&log, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        TrialEvent e;
        e.app = "mcf";
        e.tool = "LLFI";
        e.category = "all";
        e.worker = t;
        e.seq = i;
        e.trial = t * kPerThread + i;
        e.k = i + 1;
        e.bit = 13;
        e.static_site = 7;
        e.opcode = "getelementptr";
        e.function = "main";
        e.injected = true;
        e.activated = true;
        e.outcome = "crash";
        e.trap = "unmapped-access";
        e.trap_pc = 99;
        e.inject_instruction = 10;
        e.instructions_total = 25;
        e.instructions_after_injection = 15;
        e.checkpoint_hit = i % 2 == 0;
        e.latency_ms = 0.5;
        log.append(e);
      }
    });
  for (std::thread& th : pool) th.join();
  log.close();
  EXPECT_EQ(log.appended(), kThreads * kPerThread);

  const std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), kThreads * kPerThread);
  std::vector<std::uint64_t> next_seq(kThreads, 0);
  std::vector<std::uint64_t> counts(kThreads, 0);
  for (const std::string& line : lines) {
    // Shards interleave in the file, but every line must be complete JSON
    // with the schema preamble — no torn writes across the spill boundary.
    EXPECT_EQ(line.rfind("{\"v\":1,\"app\":\"mcf\"", 0), 0u);
    EXPECT_EQ(line.back(), '}');
    const std::uint64_t worker = field_u64(line, "worker");
    ASSERT_LT(worker, kThreads);
    // Per-worker ordering survives the sharded buffering.
    EXPECT_EQ(field_u64(line, "seq"), next_seq[worker]);
    ++next_seq[worker];
    ++counts[worker];
  }
  for (std::uint32_t t = 0; t < kThreads; ++t)
    EXPECT_EQ(counts[t], kPerThread) << "worker " << t;

  EXPECT_NE(lines[0].find("\"opcode\":\"getelementptr\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"function\":\"main\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"trap\":\"unmapped-access\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"trap_pc\":99"), std::string::npos);
  EXPECT_NE(lines[0].find("\"instructions_after_injection\":15"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(Events, EscapesStringsAndOmitsTrapPcWithoutTrap) {
  const std::string path = "events_escape_test.jsonl";
  EventLog log;
  ASSERT_TRUE(log.open(path));
  TrialEvent e;
  e.app = "a\"b\\c";
  e.tool = "PINFI";
  e.category = "all";
  e.outcome = "benign";  // no trap: opcode/function/trap stay null
  log.append(e);
  log.close();
  const std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"app\":\"a\\\"b\\\\c\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"opcode\":null"), std::string::npos);
  EXPECT_NE(lines[0].find("\"trap\":null"), std::string::npos);
  EXPECT_EQ(lines[0].find("trap_pc"), std::string::npos);
  EXPECT_NE(lines[0].find("\"checkpoint\":\"miss\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(Events, OpenFailureLeavesLogInert) {
  EventLog log;
  EXPECT_FALSE(log.open("no_such_directory_xyz/events.jsonl"));
  EXPECT_FALSE(log.enabled());
  TrialEvent e;
  log.append(e);
  EXPECT_EQ(log.appended(), 0u);
}

TEST(Events, DisabledPathRecordsNothingAndNeverAllocates) {
  EventLog log;  // never opened: the disabled path is one relaxed load
  TrialEvent e;
  e.app = "mcf";
  e.tool = "LLFI";
  e.category = "all";
  e.opcode = "add";
  e.outcome = "benign";
  e.latency_ms = 1.25;
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) log.append(e);
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u);
  EXPECT_EQ(log.appended(), 0u);
}

// End-to-end: a real campaign grid under an enabled global tracer yields
// one "trial" span per trial, tagged for slicing, with phase spans nested
// inside — and the manifest carries coherent latency percentiles.
TEST(Observability, SchedulerEmitsTrialSpansAndLatencyPercentiles) {
  const char* kProgram = R"(
    int main() {
      int i; long acc = 0;
      for (i = 0; i < 50; i++) acc += i * 3;
      print_int(acc);
      return 0;
    }
  )";
  auto prog = driver::compile(kProgram, "tiny");
  fault::LlfiEngine llfi(prog.module());

  Tracer& tracer = Tracer::global();
  tracer.clear();
  tracer.set_enabled(true);
  fault::SchedulerOptions options;
  options.threads = 2;
  fault::CampaignScheduler scheduler(options);
  fault::CampaignConfig cfg;
  cfg.app = "tiny";
  cfg.category = ir::Category::All;
  cfg.trials = 8;
  scheduler.add(llfi, cfg);
  const std::vector<fault::CampaignResult> results = scheduler.run();
  tracer.set_enabled(false);

  std::size_t trial_spans = 0, execute_spans = 0;
  bool saw_tags = false;
  for (const Span& s : tracer.spans()) {
    if (std::string_view(s.name) == "trial") {
      ++trial_spans;
      bool app = false, tool = false, category = false, k = false,
           checkpoint = false, outcome = false;
      for (const auto& [key, value] : s.tags) {
        app |= key == "app" && value == "tiny";
        tool |= key == "tool" && value == "LLFI";
        category |= key == "category" && value == "all";
        k |= key == "k";
        checkpoint |= key == "checkpoint" &&
                      (value == "hit" || value == "miss");
        outcome |= key == "outcome";
      }
      saw_tags = app && tool && category && k && checkpoint && outcome;
      EXPECT_TRUE(saw_tags) << "trial span missing a required tag";
    } else if (std::string_view(s.name) == "execute") {
      ++execute_spans;
    }
  }
  EXPECT_EQ(trial_spans, 8u);
  EXPECT_EQ(execute_spans, 8u);  // one execute phase nested per trial

  ASSERT_EQ(scheduler.manifest().campaigns.size(), 1u);
  const fault::CampaignTiming& t = scheduler.manifest().campaigns[0];
  EXPECT_EQ(t.trials, 8u);
  EXPECT_EQ(t.crash + t.sdc + t.benign + t.hang + t.not_activated, 8u);
  EXPECT_LE(t.restored, t.trials);
  EXPECT_EQ(t.restored,
            static_cast<std::size_t>(std::count_if(
                results[0].trials.begin(), results[0].trials.end(),
                [](const fault::TrialRecord& r) { return r.restored; })));
  EXPECT_GT(t.p50_ms, 0.0);
  EXPECT_LE(t.p50_ms, t.p95_ms);
  EXPECT_LE(t.p95_ms, t.p99_ms);
  EXPECT_GE(t.hit_rate(), 0.0);
  EXPECT_LE(t.hit_rate(), 1.0);
  tracer.clear();
}

}  // namespace
}  // namespace faultlab::obs
