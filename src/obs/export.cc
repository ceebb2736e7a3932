#include "obs/export.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "support/env.h"

namespace faultlab::obs {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string metrics_json(const MetricsSnapshot& snapshot) {
  std::ostringstream os;
  os << "{\n  \"counters\": {";
  for (std::size_t i = 0; i < snapshot.counters.size(); ++i) {
    const auto& c = snapshot.counters[i];
    os << (i != 0 ? ",\n    " : "\n    ") << "\"" << json_escape(c.name)
       << "\": " << c.value;
  }
  os << (snapshot.counters.empty() ? "" : "\n  ") << "},\n  \"gauges\": {";
  for (std::size_t i = 0; i < snapshot.gauges.size(); ++i) {
    const auto& g = snapshot.gauges[i];
    os << (i != 0 ? ",\n    " : "\n    ") << "\"" << json_escape(g.name)
       << "\": " << g.value;
  }
  os << (snapshot.gauges.empty() ? "" : "\n  ") << "},\n  \"histograms\": {";
  for (std::size_t i = 0; i < snapshot.histograms.size(); ++i) {
    const auto& h = snapshot.histograms[i];
    os << (i != 0 ? ",\n    " : "\n    ") << "\"" << json_escape(h.name)
       << "\": {\"count\": " << h.hist.count << ", \"sum\": " << h.hist.sum
       << ", \"min\": " << h.hist.min << ", \"max\": " << h.hist.max
       << ", \"mean\": " << h.hist.mean()
       << ", \"p50\": " << h.hist.percentile(50)
       << ", \"p95\": " << h.hist.percentile(95)
       << ", \"p99\": " << h.hist.percentile(99) << ", \"buckets\": [";
    bool first = true;
    for (unsigned b = 0; b < HistogramSnapshot::kBuckets; ++b) {
      if (h.hist.buckets[b] == 0) continue;
      if (!first) os << ", ";
      first = false;
      os << "[" << HistogramSnapshot::bucket_lo(b) << ", "
         << h.hist.buckets[b] << "]";
    }
    os << "]}";
  }
  os << (snapshot.histograms.empty() ? "" : "\n  ") << "}\n}\n";
  return os.str();
}

void flush_metrics() {
  if (!metrics_enabled()) return;
  const char* dest = support::parse_env_string("FAULTLAB_METRICS");
  if (dest == nullptr) return;
  const std::string json = metrics_json(Registry::global().snapshot());
  // "1" (a bare switch) keeps collection on but has nowhere to write a
  // file: print the summary to stderr instead.
  if (std::string_view(dest) == "1" || std::string_view(dest) == "stderr") {
    std::fputs(json.c_str(), stderr);
    return;
  }
  std::ofstream out(dest, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "warning: cannot write metrics to '%s'\n", dest);
    return;
  }
  out << json;
}

}  // namespace faultlab::obs
