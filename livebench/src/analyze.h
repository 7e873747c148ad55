// Per-layer numbers from the traced run's spans, and the Chrome trace.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.h"

namespace livebench {

struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

// Derive every span-based per-layer metric (client, net, handler, kv, tail
// attribution, join ratio) into *out.  `wall_s` is the traced phase's
// length (busy fractions).  A metric without samples is left out.
void AnalyzeSpans(const std::vector<Span>& spans, double wall_s, Metrics* out);

// Write the spans that start inside [from_ns, from_ns + window_ns) as Chrome
// trace-event JSON (open in chrome://tracing or ui.perfetto.dev).
bool WriteChromeTrace(const std::vector<Span>& spans, std::int64_t from_ns,
                      std::int64_t window_ns, const std::string& path);

}  // namespace livebench
