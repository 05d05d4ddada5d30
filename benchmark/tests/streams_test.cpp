#include "harness/streams.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "service/protocol.hpp"

namespace xbar::bench {
namespace {

constexpr Step kSteps[] = {Step::kNominal, Step::kHigh, Step::kCapacity,
                           Step::kTraced};

std::string key_of(const std::string& line) {
  return service::parse_request(line).cache_key;
}

TEST(Streams, SameSeedGivesByteIdenticalLinesAndSchedules) {
  for (const Workload& w : workloads()) {
    for (const Step step : kSteps) {
      const Stream a(w, 7, step);
      const Stream b(w, 7, step);
      for (std::size_t i = 0; i < 50; ++i) {
        ASSERT_EQ(a.line(i), b.line(i)) << w.name << " " << i;
        ASSERT_EQ(a.sampled(i), b.sampled(i));
      }
      EXPECT_EQ(arrival_schedule(w, 7, step, w.nominal_rps, 0.5),
                arrival_schedule(w, 7, step, w.nominal_rps, 0.5));
    }
  }
}

TEST(Streams, DifferentSeedGivesDifferentKeys) {
  for (const Workload& w : workloads()) {
    std::set<std::string> seed1;
    const Stream a(w, 1, Step::kNominal);
    const Stream b(w, 2, Step::kNominal);
    for (std::size_t i = 0; i < 40; ++i) {
      seed1.insert(key_of(a.line(i)));
    }
    std::size_t shared = 0;
    for (std::size_t i = 0; i < 40; ++i) {
      shared += seed1.count(key_of(b.line(i)));
    }
    EXPECT_EQ(shared, 0u) << w.name;
    EXPECT_NE(arrival_schedule(w, 1, Step::kNominal, w.nominal_rps, 0.5),
              arrival_schedule(w, 2, Step::kNominal, w.nominal_rps, 0.5));
  }
}

TEST(Streams, ColdRequestsAreDistinctAcrossStepsToo) {
  const Workload& cold = *find_workload("cold_solve");
  std::set<std::string> keys;
  for (const Step step : kSteps) {
    const Stream s(cold, 3, step);
    for (std::size_t i = 0; i < 300; ++i) {
      EXPECT_TRUE(keys.insert(key_of(s.line(i))).second);
    }
  }
}

TEST(Streams, HotRequestsDrawOnlyFromThePrimedKeys) {
  for (const char* name : {"hot_bursty", "routed_mix"}) {
    const Workload& w = *find_workload(name);
    const Stream primes(w, 5, Step::kPrime);
    std::set<std::string> primed;
    for (std::size_t k = 0; k < w.hot_keys; ++k) {
      EXPECT_TRUE(primes.sampled(k));
      primed.insert(key_of(primes.line(k)));
    }
    EXPECT_EQ(primed.size(), w.hot_keys);
    const Stream s(w, 5, Step::kNominal);
    std::size_t hot = 0;
    const std::size_t n = 2000;
    for (std::size_t i = 0; i < n; ++i) {
      hot += primed.count(key_of(s.line(i)));
    }
    if (w.id == WorkloadId::kHotBursty) {
      EXPECT_EQ(hot, n);
    } else {
      EXPECT_NEAR(static_cast<double>(hot) / n, 0.9, 0.03);
    }
  }
}

TEST(Streams, PlanSweepAlternatesSweepsAndBatches) {
  const Stream s(*find_workload("plan_sweep"), 1, Step::kNominal);
  const service::Request sweep = service::parse_request(s.line(0));
  const service::Request batch = service::parse_request(s.line(1));
  EXPECT_EQ(sweep.method, service::Method::kSweep);
  EXPECT_EQ(sweep.sizes.size(), 16u);
  EXPECT_EQ(sweep.sizes.back(), 128u);
  EXPECT_EQ(batch.method, service::Method::kBatch);
  EXPECT_EQ(batch.scenarios.size(), 16u);
}

TEST(Streams, AboutOneRequestInFiftyIsSampled) {
  const Stream s(*find_workload("cold_solve"), 1, Step::kNominal);
  std::size_t sampled = 0;
  const std::size_t n = 20000;
  for (std::size_t i = 0; i < n; ++i) {
    sampled += s.sampled(i) ? 1u : 0u;
  }
  EXPECT_NEAR(static_cast<double>(sampled) / n, 0.02, 0.004);
}

TEST(Schedules, AscendWithinTheStepAtTheRequestedMeanRate) {
  for (const Workload& w : workloads()) {
    const double rps = 5000.0;
    const double seconds = 4.0;
    const std::vector<double> t =
        arrival_schedule(w, 11, Step::kNominal, rps, seconds);
    ASSERT_FALSE(t.empty());
    EXPECT_TRUE(std::is_sorted(t.begin(), t.end()));
    EXPECT_GT(t.front(), 0.0);
    EXPECT_LE(t.back(), seconds);
    EXPECT_NEAR(static_cast<double>(t.size()) / (rps * seconds), 1.0, 0.05)
        << w.name;
  }
}

TEST(Schedules, BppArrivalsArePeakierThanPoisson) {
  // Index of dispersion of counts in 10 ms bins: ~1 for Poisson, well
  // above it for the peaky BPP stream.
  const auto dispersion = [](const std::vector<double>& t, double seconds) {
    const double bin = 0.01;
    std::vector<double> counts(static_cast<std::size_t>(seconds / bin), 0.0);
    for (const double x : t) {
      counts[std::min(counts.size() - 1, static_cast<std::size_t>(x / bin))] +=
          1.0;
    }
    double mean = 0.0;
    for (const double c : counts) mean += c;
    mean /= static_cast<double>(counts.size());
    double var = 0.0;
    for (const double c : counts) var += (c - mean) * (c - mean);
    var /= static_cast<double>(counts.size());
    return var / mean;
  };
  const Workload& poisson = *find_workload("cold_solve");
  const Workload& peaky = *find_workload("hot_bursty");
  EXPECT_NEAR(dispersion(arrival_schedule(poisson, 1, Step::kNominal, 10000.0,
                                          4.0),
                         4.0),
              1.0, 0.2);
  EXPECT_GT(dispersion(arrival_schedule(peaky, 1, Step::kNominal, 10000.0,
                                        4.0),
                       4.0),
            2.0);
}

}  // namespace
}  // namespace xbar::bench
