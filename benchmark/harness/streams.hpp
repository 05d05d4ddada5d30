// The benchmark's workloads and their seeded request streams.
//
// Every request line and every arrival schedule is a pure function of
// (workload, seed, step, index): the servers receive only generated lines,
// and two runs with one seed send byte-identical traffic.  The rates are
// absolute and frozen; they are never recalibrated from a run, so a faster
// server does not raise its own offered load.  On the 4-vCPU host they were
// set on, nominal is 11-21% and high 22-40% of each workload's closed-loop
// throughput at four connections: higher, the high step's p99 moved by
// several times between runs of the same code.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace xbar::bench {

enum class WorkloadId : std::uint8_t {
  kColdSolve,  ///< distinct 128x128 solves: the Algorithm 1 grid build
  kHotBursty,  ///< Zipf over 64 cached solves under BPP (peaky) arrivals
  kPlanSweep,  ///< alternating 16-size sweeps and 16-scenario batches
  kRoutedMix,  ///< router + 2 backends, 90% hot / 10% cold 64x64 solves
};

struct Workload {
  WorkloadId id;
  std::string_view name;
  double nominal_rps;
  double high_rps;
  /// Peakedness Z of the arrival process (1 = Poisson).  Bursty arrivals
  /// are the BPP birth-death process of the paper with
  /// kBurstSessions mean active sessions.
  double peakedness;
  /// Hot keys primed through the servers during set-up (0 = none).
  std::size_t hot_keys;
};

/// Mean number of concurrently active BPP sessions: sets how fast the
/// arrival rate swings (the correlation time is Z * kBurstSessions / rps).
inline constexpr double kBurstSessions = 32.0;

[[nodiscard]] const std::vector<Workload>& workloads();

/// nullptr when no workload has that name.
[[nodiscard]] const Workload* find_workload(std::string_view name);

/// Which part of a run a stream feeds.  Each step draws from its own
/// stream, so cold keys never repeat across steps.
enum class Step : std::uint8_t {
  kPrime,     ///< set-up priming of the hot keys (index = key)
  kNominal,   ///< open loop at the nominal rate
  kHigh,      ///< open loop at the high rate
  kCapacity,  ///< closed loop, no pacing
  kTraced,    ///< the traced rerun of the nominal step
};

[[nodiscard]] std::string_view to_string(Step step) noexcept;

class Stream {
 public:
  Stream(const Workload& workload, std::uint64_t seed, Step step);

  /// Request line `i` (newline-free JSON).
  [[nodiscard]] std::string line(std::size_t i) const;

  /// The id as the server echoes it (a JSON string, quotes included).
  [[nodiscard]] std::string id(std::size_t i) const;

  /// Whether the answer oracle checks request `i`: every prime, and about
  /// one request in 50 otherwise.
  [[nodiscard]] bool sampled(std::size_t i) const;

  [[nodiscard]] Step step() const noexcept { return step_; }

 private:
  [[nodiscard]] std::uint64_t request_seed(std::size_t i) const;

  const Workload* workload_;
  std::uint64_t seed_;
  Step step_;
};

/// Intended send offsets (seconds from step start, ascending) for an open
/// loop at `rps` over `seconds`: Poisson for peakedness 1, otherwise the
/// BPP birth-death process (each birth is one request).
[[nodiscard]] std::vector<double> arrival_schedule(const Workload& workload,
                                                   std::uint64_t seed,
                                                   Step step, double rps,
                                                   double seconds);

}  // namespace xbar::bench
