// Export formats for the observability layer: one JSON object with the
// metrics registry's counters, gauges, and histograms (count/sum/min/max/
// p50/p95/p99 plus non-empty buckets). The per-trial timeline is the event
// log (obs/events.h); tools/faultlab_report.py --chrome-trace renders it
// as a Chrome trace.
#pragma once

#include <string>
#include <string_view>

#include "obs/metrics.h"

namespace faultlab::obs {

/// JSON string-body escaping (quotes, backslashes, control characters).
std::string json_escape(std::string_view s);

/// Metrics snapshot as a JSON object string.
std::string metrics_json(const MetricsSnapshot& snapshot);

/// Writes the global metrics registry to $FAULTLAB_METRICS when it names a
/// path (a bare "1" prints the JSON to stderr instead). Safe to call
/// repeatedly — each call rewrites the output with the cumulative state; a
/// no-op while FAULTLAB_METRICS is off. The scheduler calls this after
/// every run, and metrics_enabled() registers it to run at exit.
void flush_metrics();

}  // namespace faultlab::obs
