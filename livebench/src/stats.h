// Summary arithmetic shared by the untraced and traced runs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace livebench {

// Nearest-rank quantile of an ascending-sorted sample (q in [0, 1]); 0 for an
// empty sample.
double Quantile(const std::vector<double>& sorted, double q);

// A tail percentile under the reporting rule: the highest percentile not
// above `want` that still has at least `min_beyond` samples beyond it.
struct Tail {
  double value = 0;       // the sample at that percentile
  double percentile = 0;  // the percentile actually reported, in [0, 1]
  std::size_t count = 0;  // sample count
};
Tail TailPercentile(std::vector<double> samples, double want,
                    std::size_t min_beyond = 10);

// Median of an unsorted sample (nearest rank); 0 when empty.
double Median(std::vector<double> samples);

struct Interval {
  std::int64_t start = 0;
  std::int64_t end = 0;
};

// Length of `parent` not covered by any child: the child intervals are
// clipped to the parent and unioned, so overlapping or nested children are
// counted once.
std::int64_t SelfTime(Interval parent, std::vector<Interval> children);

}  // namespace livebench
