// The traced run's layer replay.
//
// The servers are measured from outside: instead of instrumenting them, the
// harness replays the request lines a traced step sent (after the set-up
// primes, so the caches start where the server's did) through the same
// public functions a server calls, in the server's order, and records one
// span per call.  Four threads replay, each with its own SolverCache, over
// ResultCaches shaped like the servers' (one per backend; routed requests
// go to the backend the ring puts first).  Every replayed span is a leaf,
// so its self time is its duration.

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace xbar::bench {

enum class Span : std::uint8_t {
  kParse,       ///< service::parse_request
  kCacheGet,    ///< ResultCache::get_with_age
  kEval,        ///< SolverCache::eval_result
  kEvalBatch,   ///< SolverCache::eval_batch_result
  kSweepRun,    ///< SweepRunner::run_report
  kValidate,    ///< core::validate_measures
  kRender,      ///< write_measures_json + write_diagnostics_json
  kCachePut,    ///< ResultCache::put
  kFrame,       ///< service::render_ok
  kRouterPlan,  ///< router::HashRing::plan
};
inline constexpr std::size_t kSpanCount = 10;

[[nodiscard]] std::string_view span_name(Span span) noexcept;

/// One replayed request: per span its start (seconds since the replay
/// began) and duration; a negative duration marks a span the request did
/// not reach.
struct ReplayedRequest {
  std::array<double, kSpanCount> start{};
  std::array<double, kSpanCount> seconds{};
};

struct ReplayResult {
  std::vector<ReplayedRequest> requests;  ///< one per traced line
  // Counters over the traced lines only (the primes warm the caches).
  std::uint64_t solver_hits = 0;    ///< SolverCache + sweep slot caches
  std::uint64_t solver_misses = 0;
  double miss_cells = 0.0;          ///< grid cells built by eval misses
  double miss_eval_seconds = 0.0;   ///< eval time spent on those misses
};

/// The frame a fresh server answers `line` with, built by the replay's
/// calls (one backend, empty caches).  Tests compare it with the server's.
[[nodiscard]] std::string replay_frame(const std::string& line);

/// Replay `primes` (untimed) and then `traced` (timed) on `threads`
/// threads.  `backends` > 1 adds the router's placement step.
[[nodiscard]] ReplayResult replay(const std::vector<std::string>& primes,
                                  const std::vector<std::string>& traced,
                                  std::size_t backends, unsigned threads);

}  // namespace xbar::bench
