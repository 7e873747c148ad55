#include "stats.h"

#include <algorithm>
#include <cmath>

namespace livebench {

double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const double n = static_cast<double>(sorted.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

Tail TailPercentile(std::vector<double> samples, double want,
                    std::size_t min_beyond) {
  Tail t;
  t.count = samples.size();
  if (samples.empty()) return t;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  // The nearest-rank sample of rank r has n - r samples beyond it, so rank
  // n - min_beyond is the highest that keeps min_beyond of them.
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(std::clamp(want, 0.0, 1.0) * static_cast<double>(n)));
  if (n > min_beyond) rank = std::min(rank, n - min_beyond);
  else rank = 1;
  rank = std::max<std::size_t>(rank, 1);
  t.percentile = static_cast<double>(rank) / static_cast<double>(n);
  t.value = samples[rank - 1];
  return t;
}

double Median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return Quantile(samples, 0.5);
}

std::int64_t SelfTime(Interval parent, std::vector<Interval> children) {
  const std::int64_t total = std::max<std::int64_t>(0, parent.end - parent.start);
  for (Interval& c : children) {
    c.start = std::max(c.start, parent.start);
    c.end = std::min(c.end, parent.end);
  }
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  std::int64_t covered = 0;
  std::int64_t run_start = 0;
  std::int64_t run_end = 0;
  bool open = false;
  for (const Interval& c : children) {
    if (c.end <= c.start) continue;
    if (open && c.start <= run_end) {
      run_end = std::max(run_end, c.end);
      continue;
    }
    if (open) covered += run_end - run_start;
    run_start = c.start;
    run_end = c.end;
    open = true;
  }
  if (open) covered += run_end - run_start;
  return total - covered;
}

}  // namespace livebench
