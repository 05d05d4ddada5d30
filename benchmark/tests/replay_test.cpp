#include "harness/replay.hpp"

#include <gtest/gtest.h>

#include <regex>
#include <string>

#include "client/client.hpp"
#include "harness/streams.hpp"
#include "service/server.hpp"

namespace xbar::bench {
namespace {

/// Two evaluations of one request differ only in their timings.
std::string without_timings(const std::string& frame) {
  static const std::regex wall("\"wall_seconds\":[^,}]*");
  return std::regex_replace(frame, wall, "\"wall_seconds\":0");
}

// The traced run times report.render and service.cache_put on the frames
// the replay builds, so those must be the frames the server writes.
TEST(Replay, FramesMatchTheServersForASolveABatchAndASweep) {
  service::ServerConfig config;
  config.workers = 1;
  config.idle_poll_seconds = 0.05;
  service::Server server(config);
  server.start();
  client::ClientConfig client_config;
  client_config.port = server.port();
  client_config.request_timeout_seconds = 10.0;
  client::XbarClient client(client_config);

  const Stream solves(*find_workload("cold_solve"), 3, Step::kNominal);
  const Stream plans(*find_workload("plan_sweep"), 3, Step::kNominal);
  for (const std::string& line :
       {solves.line(0), plans.line(1), plans.line(0)}) {
    const client::CallResult served = client.call(line);
    ASSERT_EQ(served.outcome, client::Outcome::kOk);
    ASSERT_NE(served.response.find("\"status\":\"ok\""), std::string::npos);
    EXPECT_EQ(without_timings(replay_frame(line)),
              without_timings(served.response))
        << line.substr(0, 40);
  }
  server.stop();
}

}  // namespace
}  // namespace xbar::bench
