#include "harness/replay.hpp"

#include <chrono>
#include <memory>
#include <optional>
#include <sstream>

#include "core/error.hpp"
#include "core/measures.hpp"
#include "report/json_writer.hpp"
#include "report/solve_json.hpp"
#include "router/hash_ring.hpp"
#include "service/protocol.hpp"
#include "service/result_cache.hpp"
#include "sweep/sweep.hpp"
#include "sweep/thread_pool.hpp"

namespace xbar::bench {

namespace {

using Clock = std::chrono::steady_clock;
using report::JsonWriter;

/// What one replay thread owns: the server worker's SolverCache.
struct Slot {
  sweep::SolverCache solver_cache{8};  // ServerConfig::solver_cache_entries
  std::uint64_t sweep_hits = 0;
  std::uint64_t sweep_misses = 0;
  double miss_cells = 0.0;
  double miss_eval_seconds = 0.0;
};

class Replayer {
 public:
  Replayer(std::size_t backends, Clock::time_point origin)
      : ring_(backends), alive_(backends, 1), idle_(backends, 0),
        origin_(origin) {
    for (std::size_t b = 0; b < backends; ++b) {
      // ServerConfig defaults: 8 shards x 64 entries.
      caches_.push_back(std::make_unique<service::ResultCache>(8, 64));
    }
  }

  /// Mirrors Server::execute for the cacheable methods the workloads send,
  /// and returns the frame the server would write.
  std::string run(const std::string& line, Slot& slot, ReplayedRequest& out) {
    out.seconds.fill(-1.0);
    Clock::time_point t = Clock::now();
    const auto mark = [&](Span span) {
      const Clock::time_point now = Clock::now();
      const auto i = static_cast<std::size_t>(span);
      out.start[i] = std::chrono::duration<double>(t - origin_).count();
      out.seconds[i] = std::chrono::duration<double>(now - t).count();
      t = now;
    };

    const service::Request request = service::parse_request(line);
    mark(Span::kParse);
    std::size_t backend = 0;
    if (caches_.size() > 1) {
      // The router's placement with no request in flight: the ring owner.
      backend = ring_.plan(router::HashRing::hash_key(request.cache_key),
                           alive_, idle_)
                    .front();
      mark(Span::kRouterPlan);
    }
    service::ResultCache& cache = *caches_[backend];
    const std::optional<service::ResultCache::AgedValue> hit =
        cache.get_with_age(request.cache_key);
    mark(Span::kCacheGet);
    if (hit.has_value()) {
      std::string frame = service::render_ok(request.id, hit->value, true);
      mark(Span::kFrame);
      return frame;
    }

    std::ostringstream json_out;
    JsonWriter json(json_out, JsonWriter::Style::kCompact);
    if (request.method == service::Method::kSolve) {
      const core::SolveResult result =
          slot.solver_cache.eval_result(*request.model, request.solver);
      mark(Span::kEval);
      if (!result.diagnostics.cache_hit) {
        slot.miss_cells += static_cast<double>(result.diagnostics.grid.n1 + 1) *
                           static_cast<double>(result.diagnostics.grid.n2 + 1);
        slot.miss_eval_seconds +=
            out.seconds[static_cast<std::size_t>(Span::kEval)];
      }
      check(core::validate_measures(result.measures));
      mark(Span::kValidate);
      json.begin_object();
      json.key("measures");
      report::write_measures_json(json, *request.model, result.measures);
      json.key("diagnostics");
      report::write_diagnostics_json(json, result.diagnostics);
      json.end_object();
      mark(Span::kRender);
    } else if (request.method == service::Method::kBatch) {
      const std::vector<core::SolveResult> results =
          slot.solver_cache.eval_batch_result(request.scenarios,
                                              request.solver);
      mark(Span::kEvalBatch);
      for (const core::SolveResult& r : results) {
        check(core::validate_measures(r.measures));
      }
      mark(Span::kValidate);
      json.begin_object();
      json.key("scenarios").begin_array();
      for (std::size_t i = 0; i < results.size(); ++i) {
        json.begin_object();
        json.key("measures");
        report::write_measures_json(json, request.scenarios[i],
                                    results[i].measures);
        json.key("diagnostics");
        report::write_diagnostics_json(json, results[i].diagnostics);
        json.end_object();
      }
      json.end_array();
      json.end_object();
      mark(Span::kRender);
    } else if (request.method == service::Method::kSweep) {
      std::vector<sweep::ScenarioPoint> points;
      points.reserve(request.sizes.size());
      for (const unsigned n : request.sizes) {
        points.push_back({core::CrossbarModel(
                              core::Dims::square(n),
                              {request.model->classes().begin(),
                               request.model->classes().end()}),
                          std::nullopt});
      }
      sweep::SweepOptions options;
      options.solver = request.solver;
      options.fault.isolate = true;
      sweep::SweepRunner runner(options);
      const sweep::SweepReport swept = runner.run_report(points);
      mark(Span::kSweepRun);
      slot.sweep_hits += swept.total_hits();
      slot.sweep_misses += swept.total_misses();
      json.begin_object();
      json.key("points").begin_array();
      for (std::size_t i = 0; i < points.size(); ++i) {
        const sweep::PointStatus& status = swept.statuses[i];
        const bool solved = status.state == sweep::PointState::kOk ||
                            status.state == sweep::PointState::kRetried;
        json.begin_object();
        json.key("n").value(request.sizes[i]);
        json.key("status").value(sweep::to_string(status.state));
        if (!status.error.empty()) {
          json.key("error_kind").value(xbar::to_string(status.error_kind));
          json.key("error").value(status.error);
        }
        json.key("measures");
        if (solved) {
          report::write_measures_json(json, points[i].model,
                                      swept.results[i].measures);
        } else {
          json.value_null();
        }
        json.key("diagnostics");
        if (solved) {
          report::write_diagnostics_json(json, swept.results[i].diagnostics);
        } else {
          json.value_null();
        }
        json.end_object();
      }
      json.end_array();
      json.key("summary").begin_object();
      json.key("ok").value(
          static_cast<std::uint64_t>(swept.count(sweep::PointState::kOk)));
      json.key("retried").value(static_cast<std::uint64_t>(
          swept.count(sweep::PointState::kRetried)));
      json.key("failed").value(static_cast<std::uint64_t>(
          swept.count(sweep::PointState::kFailed)));
      json.key("cancelled").value(static_cast<std::uint64_t>(
          swept.count(sweep::PointState::kCancelled)));
      json.key("complete").value(swept.complete());
      json.end_object();
      json.key("cache").begin_object();
      json.key("hits").value(static_cast<std::uint64_t>(swept.total_hits()));
      json.key("misses").value(
          static_cast<std::uint64_t>(swept.total_misses()));
      json.end_object();
      json.key("wall_seconds").value(swept.wall_seconds);
      json.end_object();
      mark(Span::kRender);
    } else {
      raise(ErrorKind::kInternal, "replay: unexpected method in a stream");
    }
    std::string result_json = std::move(json_out).str();
    cache.put(request.cache_key, result_json);
    mark(Span::kCachePut);
    std::string frame = service::render_ok(request.id, result_json, false);
    mark(Span::kFrame);
    return frame;
  }

 private:
  static void check(const std::optional<std::string>& violation) {
    if (violation.has_value()) {
      raise(ErrorKind::kDomain, "replay produced invalid measures: " +
                                    *violation);
    }
  }

  router::HashRing ring_;  // the router's defaults: 64 vnodes, c = 1.25
  std::vector<char> alive_;
  std::vector<std::size_t> idle_;
  std::vector<std::unique_ptr<service::ResultCache>> caches_;
  Clock::time_point origin_;
};

/// Run `lines` across the slots, the next line going to the first free
/// one, the way a server's workers pick up requests.
void run_phase(sweep::ThreadPool& pool, Replayer& replayer,
               std::vector<Slot>& slots, const std::vector<std::string>& lines,
               std::vector<ReplayedRequest>& out) {
  pool.parallel_for(lines.size(), static_cast<unsigned>(slots.size()),
                    [&](std::size_t i, unsigned slot) {
                      (void)replayer.run(lines[i], slots[slot], out[i]);
                    });
}

struct Totals {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  double cells = 0.0;
  double seconds = 0.0;
};

Totals totals(const std::vector<Slot>& slots) {
  Totals t;
  for (const Slot& s : slots) {
    t.hits += s.solver_cache.hits() + s.sweep_hits;
    t.misses += s.solver_cache.misses() + s.sweep_misses;
    t.cells += s.miss_cells;
    t.seconds += s.miss_eval_seconds;
  }
  return t;
}

}  // namespace

std::string_view span_name(Span span) noexcept {
  switch (span) {
    case Span::kParse: return "service.parse";
    case Span::kCacheGet: return "service.cache_get";
    case Span::kEval: return "sweep.eval";
    case Span::kEvalBatch: return "sweep.eval_batch";
    case Span::kSweepRun: return "sweep.run";
    case Span::kValidate: return "core.validate";
    case Span::kRender: return "report.render";
    case Span::kCachePut: return "service.cache_put";
    case Span::kFrame: return "service.frame";
    case Span::kRouterPlan: return "router.plan";
  }
  return "?";
}

std::string replay_frame(const std::string& line) {
  Replayer replayer(1, Clock::now());
  Slot slot;
  ReplayedRequest spans;
  return replayer.run(line, slot, spans);
}

ReplayResult replay(const std::vector<std::string>& primes,
                    const std::vector<std::string>& traced,
                    std::size_t backends, unsigned threads) {
  sweep::ThreadPool pool(threads - 1);
  Replayer replayer(backends, Clock::now());
  std::vector<Slot> slots(threads);
  std::vector<ReplayedRequest> warm(primes.size());
  run_phase(pool, replayer, slots, primes, warm);
  const Totals before = totals(slots);

  ReplayResult result;
  result.requests.resize(traced.size());
  run_phase(pool, replayer, slots, traced, result.requests);
  const Totals after = totals(slots);
  result.solver_hits = after.hits - before.hits;
  result.solver_misses = after.misses - before.misses;
  result.miss_cells = after.cells - before.cells;
  result.miss_eval_seconds = after.seconds - before.seconds;
  return result;
}

}  // namespace xbar::bench
