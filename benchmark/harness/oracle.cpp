#include "harness/oracle.hpp"

#include <cmath>
#include <exception>
#include <map>
#include <mutex>
#include <optional>

#include "core/algorithm1.hpp"
#include "core/algorithm2.hpp"
#include "report/json_reader.hpp"
#include "service/protocol.hpp"
#include "service/result_cache.hpp"
#include "sweep/thread_pool.hpp"

namespace xbar::bench {

namespace {

using report::JsonValue;

/// Reference blocking per class, memoized: hot workloads repeat scenarios.
class References {
 public:
  std::vector<double> get(const std::string& key,
                          const core::CrossbarModel& model,
                          bool answered_by_algorithm2) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (const auto it = memo_.find(key); it != memo_.end()) {
        return it->second;
      }
    }
    const core::Measures m = answered_by_algorithm2
                                 ? core::Algorithm1Solver(model).solve()
                                 : core::Algorithm2Solver(model).solve();
    std::vector<double> blocking;
    for (const core::ClassMeasures& c : m.per_class) {
      blocking.push_back(c.blocking);
    }
    std::lock_guard<std::mutex> lock(mutex_);
    memo_.emplace(key, blocking);
    return blocking;
  }

 private:
  std::mutex mutex_;
  std::map<std::string, std::vector<double>> memo_;
};

/// A mismatch description, or nullopt when the answer checks out.
std::optional<std::string> check_one(const Answer& answer,
                                     References& references) {
  const JsonValue doc = report::parse_json(answer.response);
  if (doc.at("status").as_string() != "ok") {
    return "not an ok frame";
  }
  const JsonValue& result = doc.at("result");
  const service::Request request = service::parse_request(answer.request);
  const std::uint64_t pick = service::cache_fingerprint(answer.request);

  const JsonValue* point = &result;
  std::optional<core::CrossbarModel> model;
  std::size_t index = 0;
  switch (request.method) {
    case service::Method::kSolve:
      model = *request.model;
      break;
    case service::Method::kBatch:
      index = pick % request.scenarios.size();
      point = &result.at("scenarios").as_array().at(index);
      model = request.scenarios[index];
      break;
    case service::Method::kSweep: {
      index = pick % request.sizes.size();
      point = &result.at("points").as_array().at(index);
      const unsigned n = request.sizes[index];
      if (point->at("n").as_number() != static_cast<double>(n) ||
          point->at("status").as_string() != "ok") {
        return "sweep point " + std::to_string(n) + " missing or not ok";
      }
      model.emplace(core::Dims::square(n),
                    std::vector<core::TrafficClass>(
                        request.model->classes().begin(),
                        request.model->classes().end()));
      break;
    }
    default:
      return "unexpected method";
  }
  const bool by_algorithm2 =
      point->at("diagnostics").at("algorithm").as_string() == "algorithm2";
  const std::vector<double> want = references.get(
      request.cache_key + "#" + std::to_string(index) +
          (by_algorithm2 ? "/a1" : "/a2"),
      *model, by_algorithm2);
  const report::JsonArray& per_class =
      point->at("measures").at("per_class").as_array();
  if (per_class.size() != want.size()) {
    return "class count " + std::to_string(per_class.size()) + " != " +
           std::to_string(want.size());
  }
  for (std::size_t r = 0; r < want.size(); ++r) {
    const double got = per_class[r].at("blocking").as_number();
    if (per_class[r].at("name").as_string() != model->classes()[r].name ||
        !(std::fabs(got - want[r]) <= kBlockingTolerance)) {
      return "class " + std::to_string(r) + " blocking " +
             std::to_string(got) + " vs reference " + std::to_string(want[r]);
    }
  }
  return std::nullopt;
}

}  // namespace

OracleReport check_answers(const std::vector<Answer>& answers,
                           unsigned threads) {
  References references;
  std::mutex report_mutex;
  OracleReport report;
  report.checked = answers.size();
  sweep::ThreadPool pool(threads - 1);
  pool.parallel_for(answers.size(), threads, [&](std::size_t i, unsigned) {
    std::optional<std::string> problem;
    try {
      problem = check_one(answers[i], references);
    } catch (const std::exception& e) {
      problem = std::string("malformed answer: ") + e.what();
    }
    if (problem.has_value()) {
      std::lock_guard<std::mutex> lock(report_mutex);
      ++report.wrong;
      if (report.mismatches.size() < 5) {
        report.mismatches.push_back(*problem + " in " +
                                    answers[i].response.substr(0, 80));
      }
    }
  });
  return report;
}

}  // namespace xbar::bench
