#include "harness/streams.hpp"

#include <array>
#include <charconv>
#include <cmath>

#include "dist/bpp.hpp"
#include "dist/rng.hpp"

namespace xbar::bench {

namespace {

// The classes of examples/scenarios/mixed_64.ini, copied so that the
// stream depends on nothing outside the benchmark.
struct BaseClass {
  const char* name;
  bool poisson;
  double load;  ///< rho~ (Poisson) or alpha~ (bursty)
  double beta;  ///< beta~ (bursty only)
  unsigned bandwidth;
  double mu;
  double weight;
};
constexpr std::array<BaseClass, 3> kMixed = {{
    {"voice", true, 0.45, 0.0, 1, 1.0, 1.0},
    {"video", false, 0.0008, -2e-6, 2, 0.5, 3.0},
    {"bulk", false, 0.1, 0.05, 1, 2.0, 0.2},
}};

constexpr unsigned kColdSide = 128;   // cold_solve, hot_bursty, sweep base
constexpr unsigned kSmallSide = 64;   // batch scenarios, routed_mix
constexpr std::size_t kBatchSize = 16;
constexpr unsigned kSweepStep = 8;    // sweep sizes 8, 16, ..., 128
constexpr double kRoutedHotShare = 0.9;

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  return dist::SplitMix64(a ^ (b * 0x9E3779B97F4A7C15ULL)).next();
}

void append_number(std::string& out, double v) {
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  (void)ec;
  out.append(buf, end);
}

/// One scenario object: the mixed classes on an n x n switch with every
/// class's load scaled by its own factor in [0.8, 1.2).  Scaling alpha~ and
/// beta~ together keeps a Bernoulli class's source population fixed.
void append_scenario(std::string& out, unsigned side, std::uint64_t seed) {
  dist::Xoshiro256 rng(seed);
  out += "{\"switch\":{\"inputs\":";
  out += std::to_string(side);
  out += ",\"outputs\":";
  out += std::to_string(side);
  out += "},\"classes\":[";
  for (std::size_t r = 0; r < kMixed.size(); ++r) {
    const BaseClass& c = kMixed[r];
    const double factor = 0.8 + 0.4 * rng.uniform01();
    out += r == 0 ? "{\"name\":\"" : ",{\"name\":\"";
    out += c.name;
    if (c.poisson) {
      out += "\",\"shape\":\"poisson\",\"rho\":";
      append_number(out, c.load * factor);
    } else {
      out += "\",\"shape\":\"bursty\",\"alpha\":";
      append_number(out, c.load * factor);
      out += ",\"beta\":";
      append_number(out, c.beta * factor);
    }
    out += ",\"bandwidth\":";
    out += std::to_string(c.bandwidth);
    out += ",\"mu\":";
    append_number(out, c.mu);
    out += ",\"weight\":";
    append_number(out, c.weight);
    out += '}';
  }
  out += "]}";
}

constexpr std::size_t kZipfKeys = 64;

/// Index of a Zipf(1.0) draw over kZipfKeys keys from a uniform u in [0,1).
std::size_t zipf_key(double u) {
  static const std::array<double, kZipfKeys> cdf = [] {
    std::array<double, kZipfKeys> c{};
    double total = 0.0;
    for (std::size_t k = 0; k < kZipfKeys; ++k) {
      total += 1.0 / static_cast<double>(k + 1);
      c[k] = total;
    }
    for (double& v : c) {
      v /= total;
    }
    return c;
  }();
  for (std::size_t k = 0; k < kZipfKeys; ++k) {
    if (u < cdf[k]) {
      return k;
    }
  }
  return kZipfKeys - 1;
}

std::string solve_line(std::string_view id, unsigned side,
                       std::uint64_t scenario_seed) {
  std::string out = "{\"method\":\"solve\",\"id\":";
  out += id;
  out += ",\"scenario\":";
  append_scenario(out, side, scenario_seed);
  out += '}';
  return out;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {WorkloadId::kColdSolve, "cold_solve", 1250.0, 2500.0, 1.0, 0},
      {WorkloadId::kHotBursty, "hot_bursty", 15000.0, 30000.0, 4.0, 64},
      {WorkloadId::kPlanSweep, "plan_sweep", 600.0, 1000.0, 1.0, 0},
      {WorkloadId::kRoutedMix, "routed_mix", 4000.0, 8000.0, 1.0, 256},
  };
  return all;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) {
      return &w;
    }
  }
  return nullptr;
}

std::string_view to_string(Step step) noexcept {
  switch (step) {
    case Step::kPrime: return "prime";
    case Step::kNominal: return "nominal";
    case Step::kHigh: return "high";
    case Step::kCapacity: return "capacity";
    case Step::kTraced: return "traced";
  }
  return "?";
}

Stream::Stream(const Workload& workload, std::uint64_t seed, Step step)
    : workload_(&workload), seed_(seed), step_(step) {}

std::uint64_t Stream::request_seed(std::size_t i) const {
  const std::uint64_t tag =
      (static_cast<std::uint64_t>(workload_->id) << 8) |
      static_cast<std::uint64_t>(step_);
  return mix(mix(seed_, tag), i);
}

std::string Stream::id(std::size_t i) const {
  return "\"" + std::string(1, to_string(step_).front()) + std::to_string(i) +
         "\"";
}

bool Stream::sampled(std::size_t i) const {
  return step_ == Step::kPrime || mix(request_seed(i), 50) % 50 == 0;
}

std::string Stream::line(std::size_t i) const {
  const std::string rid = id(i);
  // Hot key k's scenario depends on the seed and the key only, so the
  // primed entry and every later request for k are the same computation.
  const auto hot_seed = [&](std::size_t key) {
    return mix(mix(seed_, 0x407ULL + static_cast<std::uint64_t>(workload_->id)),
               key);
  };
  if (step_ == Step::kPrime) {
    const unsigned side =
        workload_->id == WorkloadId::kRoutedMix ? kSmallSide : kColdSide;
    return solve_line(rid, side, hot_seed(i));
  }
  const std::uint64_t rs = request_seed(i);
  dist::Xoshiro256 rng(rs);
  switch (workload_->id) {
    case WorkloadId::kColdSolve:
      return solve_line(rid, kColdSide, rs);
    case WorkloadId::kHotBursty:
      return solve_line(rid, kColdSide, hot_seed(zipf_key(rng.uniform01())));
    case WorkloadId::kRoutedMix:
      if (rng.uniform01() < kRoutedHotShare) {
        return solve_line(rid, kSmallSide,
                          hot_seed(rng.uniform_below(workload_->hot_keys)));
      }
      return solve_line(rid, kSmallSide, rs);
    case WorkloadId::kPlanSweep:
      break;
  }
  // Planning requests ask for the fast kernel: it is what routes a batch
  // through the lane-interleaved Algorithm1BatchSolver.
  std::string out;
  if (i % 2 == 0) {
    out = "{\"method\":\"sweep\",\"id\":" + rid + ",\"scenario\":";
    append_scenario(out, kColdSide, rs);
    out += ",\"solver\":\"fast\",\"sizes\":[";
    for (unsigned n = kSweepStep; n <= kColdSide; n += kSweepStep) {
      out += n == kSweepStep ? "" : ",";
      out += std::to_string(n);
    }
    out += "]}";
    return out;
  }
  out = "{\"method\":\"batch\",\"id\":" + rid +
        ",\"solver\":\"fast\",\"scenarios\":[";
  for (std::size_t b = 0; b < kBatchSize; ++b) {
    out += b == 0 ? "" : ",";
    append_scenario(out, kSmallSide, mix(rs, b));
  }
  out += "]}";
  return out;
}

std::vector<double> arrival_schedule(const Workload& workload,
                                     std::uint64_t seed, Step step,
                                     double rps, double seconds) {
  std::vector<double> times;
  if (!(rps > 0.0) || !(seconds > 0.0)) {
    return times;
  }
  times.reserve(static_cast<std::size_t>(rps * seconds * 1.1) + 16);
  dist::Xoshiro256 rng(mix(mix(seed, 0x5C4EDULL),
                           (static_cast<std::uint64_t>(workload.id) << 8) |
                               static_cast<std::uint64_t>(step)));
  double t = 0.0;
  if (workload.peakedness <= 1.0) {
    for (;;) {
      t += rng.exponential(rps);
      if (t > seconds) {
        return times;
      }
      times.push_back(t);
    }
  }
  // BPP: births at alpha + beta k (each one a request), deaths at k mu.
  // The mean birth rate is mu * E[k] = rps.
  const double mu = rps / kBurstSessions;
  const dist::BppParams params = dist::BppParams::from_mean_peakedness(
      kBurstSessions, workload.peakedness, mu);
  auto k = static_cast<unsigned>(std::lround(kBurstSessions));
  for (;;) {
    const double birth = params.intensity(k);
    const double total = birth + static_cast<double>(k) * mu;
    t += rng.exponential(total);
    if (t > seconds) {
      return times;
    }
    if (rng.uniform01() * total < birth) {
      times.push_back(t);
      ++k;
    } else {
      --k;
    }
  }
}

}  // namespace xbar::bench
