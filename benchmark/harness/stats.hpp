// Exact order statistics over raw samples.
//
// The harness keeps every latency sample a step produces and computes
// quantiles from the sorted values, so a reported p99 is a sample that was
// actually observed rather than a histogram bucket edge.  Tail latency is
// reported windowed: a step is cut into consecutive windows of between
// kMinWindow and 2 * kMinWindow - 1 samples (always at most 9,999), so
// within a window p99 is the highest "nines" percentile with at least ten
// samples beyond it, and the metric is the median of the windows' p99
// values.  Many windows make that median robust to a short stall of the
// host, which inflates the tail of the window it lands in and no other.

#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace xbar::bench {

/// Smallest window with ten samples beyond its p99.
inline constexpr std::size_t kMinWindow = 1000;

/// Nearest-rank quantile of an ascending-sorted sample: the smallest value
/// with at least a share `q` of the sample at or below it.  0 when empty.
[[nodiscard]] double quantile_sorted(std::span<const double> sorted, double q);

/// quantile_sorted over an unsorted sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// Median in the statistics-module sense: the middle value, or the mean of
/// the two middle values for an even count.  0 when empty.
[[nodiscard]] double median(std::vector<double> values);

/// Sizes of the consecutive windows a step of `n` samples is cut into: as
/// many windows of at least kMinWindow samples as fit (one window when
/// n < kMinWindow), as equal as possible, earlier windows taking the
/// remainder.
[[nodiscard]] std::vector<std::size_t> window_sizes(std::size_t n);

/// Median over windows (in arrival order) of each window's nearest-rank
/// p99.  0 when empty.
[[nodiscard]] double windowed_p99(std::span<const double> in_order);

}  // namespace xbar::bench
