// The answer oracle: sampled ok responses against an in-process solve.
//
// After the timed steps, each sampled response is parsed with
// report/json_reader and its per-class blocking is compared with an
// independent in-process solve of the scenario the request named: Algorithm
// 2, or Algorithm 1 on the ScaledFloat backend when the server itself
// answered with Algorithm 2.  For a sweep or a batch one point is checked,
// chosen by the request's fingerprint.  The tolerance is the one the
// Algorithm 1 vs 2 equivalence tests use.

#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace xbar::bench {

inline constexpr double kBlockingTolerance = 1e-9;

struct Answer {
  std::string request;   ///< the line sent
  std::string response;  ///< the ok frame received
};

struct OracleReport {
  std::size_t checked = 0;
  std::size_t wrong = 0;
  std::vector<std::string> mismatches;  ///< first few, for the log
};

[[nodiscard]] OracleReport check_answers(const std::vector<Answer>& answers,
                                         unsigned threads);

}  // namespace xbar::bench
