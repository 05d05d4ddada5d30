#include "harness/stats.hpp"

#include <algorithm>
#include <cmath>

namespace xbar::bench {

double quantile_sorted(std::span<const double> sorted, double q) {
  if (sorted.empty()) {
    return 0.0;
  }
  const double n = static_cast<double>(sorted.size());
  const auto rank = static_cast<std::size_t>(std::ceil(q * n));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

double quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  return quantile_sorted(values, q);
}

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

std::vector<std::size_t> window_sizes(std::size_t n) {
  if (n == 0) {
    return {};
  }
  const std::size_t windows = std::max<std::size_t>(1, n / kMinWindow);
  std::vector<std::size_t> sizes(windows, n / windows);
  for (std::size_t w = 0; w < n % windows; ++w) {
    ++sizes[w];
  }
  return sizes;
}

double windowed_p99(std::span<const double> in_order) {
  std::vector<double> p99s;
  std::size_t begin = 0;
  for (const std::size_t size : window_sizes(in_order.size())) {
    std::vector<double> window(in_order.begin() + static_cast<long>(begin),
                               in_order.begin() +
                                   static_cast<long>(begin + size));
    p99s.push_back(quantile(std::move(window), 0.99));
    begin += size;
  }
  return median(std::move(p99s));
}

}  // namespace xbar::bench
