// Serving-plane integration: ledger invariant (including chaos runs),
// load shedding under overload, replication-driven availability, and
// bit-determinism for identical seeds.

#include "serve/frontdoor.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "faults/injector.hpp"
#include "faults/plan.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "node/device.hpp"
#include "obs/metrics.hpp"
#include "obs/rollup.hpp"
#include "serve/slo.hpp"
#include "sim/simulator.hpp"

namespace rb::serve {
namespace {

FrontDoorParams small_params() {
  FrontDoorParams p;
  p.replication = 3;
  p.key_universe = 2'000;
  p.horizon = 200 * sim::kMillisecond;
  p.offered_qps = 5'000.0;
  p.seed = 0xBEEF;
  p.replica.device = node::find_device(node::DeviceKind::kCpu);
  p.replica.batch_overhead = sim::kMillisecond;  // slow servers, small tests
  p.replica.per_request = node::KernelProfile{2.0e5, 6.0e5, 1.0, 512.0};
  p.replica.queue_limit = 16;
  p.replica.batch_max = 8;
  return p;
}

/// Stagger one outage per replica host across the arrival window.
faults::FaultPlan churn_plan(const net::Topology& topo,
                             sim::SimTime horizon) {
  faults::FaultPlan plan;
  const auto hosts = topo.nodes_of_kind(net::NodeKind::kHost);
  for (std::size_t i = 1; i < hosts.size(); ++i) {  // hosts[0] = gateway
    const auto at = static_cast<sim::SimTime>(
        horizon / 10 + (horizon * static_cast<sim::SimTime>(i - 1)) /
                           static_cast<sim::SimTime>(hosts.size()));
    plan.add_node_outage(hosts[i], at, horizon / 8);
  }
  return plan;
}

struct RunResult {
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t failed = 0;
  std::uint64_t retries = 0;
  double availability = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  bool ledger_ok = false;
};

RunResult run(const FrontDoorParams& params, bool chaos) {
  net::Topology topo = net::make_leaf_spine(2, 2, 2);  // 4 hosts
  sim::Simulator sim;
  net::Router router{topo};
  FrontDoor door{sim, topo, router, params};
  door.preload();

  std::optional<faults::FaultInjector> injector;
  if (chaos) {
    injector.emplace(sim, topo, churn_plan(topo, params.horizon));
    injector->on_event(
        [&door](const faults::FaultEvent& ev) { door.handle_fault(ev); });
    injector->arm();
  }
  door.start();
  sim.run();

  const SloAccountant& slo = door.slo();
  RunResult out;
  out.issued = slo.issued();
  out.completed = slo.completed();
  out.rejected = slo.rejected();
  out.failed = slo.failed();
  out.retries = slo.retries();
  out.availability = slo.availability();
  out.ledger_ok = slo.ledger_ok();
  if (!slo.latency_seconds().empty()) {
    out.p50_ms = slo.latency_seconds().p50() * 1e3;
    out.p99_ms = slo.latency_seconds().p99() * 1e3;
  }
  return out;
}

TEST(FrontDoor, LedgerHoldsAcrossConfigurations) {
  for (const std::size_t replication : {std::size_t{1}, std::size_t{3}}) {
    for (const double load_multiplier : {0.4, 2.5}) {
      for (const bool chaos : {false, true}) {
        auto params = small_params();
        params.replication = replication;
        params.offered_qps =
            load_multiplier * estimated_capacity_qps(params, 3);
        const auto r = run(params, chaos);
        ASSERT_GT(r.issued, 0u);
        EXPECT_TRUE(r.ledger_ok)
            << "R=" << replication << " load=" << load_multiplier
            << " chaos=" << chaos << ": " << r.completed << "+" << r.rejected
            << "+" << r.failed << " != " << r.issued;
      }
    }
  }
}

TEST(FrontDoor, HealthyClusterAtModerateLoadCompletesEverything) {
  auto params = small_params();
  params.offered_qps = 0.4 * estimated_capacity_qps(params, 3);
  const auto r = run(params, /*chaos=*/false);
  EXPECT_EQ(r.completed, r.issued);
  EXPECT_EQ(r.rejected, 0u);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_GT(r.p50_ms, 0.0);
}

TEST(FrontDoor, OverloadShedsInsteadOfQueueingUnboundedly) {
  auto params = small_params();
  const double capacity = estimated_capacity_qps(params, 3);
  params.offered_qps = 3.0 * capacity;
  const auto r = run(params, /*chaos=*/false);
  EXPECT_TRUE(r.ledger_ok);
  EXPECT_GT(r.rejected, 0u) << "admission control never triggered";
  // Goodput saturates near capacity instead of collapsing...
  const double goodput =
      static_cast<double>(r.completed) / sim::to_seconds(params.horizon);
  EXPECT_GT(goodput, 0.5 * capacity);
  // ...and bounded queues bound the completed requests' tail latency: at
  // most ~(queue_limit / batch_max + 2) batch times plus fabric delays.
  const double batch_ms =
      sim::to_seconds(ReplicaServer::amortized_service_time(params.replica)) *
      1e3 * static_cast<double>(params.replica.batch_max);
  const double bound_ms =
      batch_ms * (static_cast<double>(params.replica.queue_limit) /
                      static_cast<double>(params.replica.batch_max) +
                  3.0);
  EXPECT_LT(r.p99_ms, bound_ms);
}

TEST(FrontDoor, ReplicationRaisesAvailabilityUnderChurn) {
  auto params = small_params();
  params.offered_qps = 0.5 * estimated_capacity_qps(params, 3);

  auto r1_params = params;
  r1_params.replication = 1;
  const auto r1 = run(r1_params, /*chaos=*/true);

  auto r3_params = params;
  r3_params.replication = 3;
  const auto r3 = run(r3_params, /*chaos=*/true);

  EXPECT_TRUE(r1.ledger_ok);
  EXPECT_TRUE(r3.ledger_ok);
  EXPECT_GT(r1.failed + r1.retries, 0u) << "churn plan never bit";
  EXPECT_GT(r3.availability, r1.availability);
  EXPECT_GT(r3.availability, 0.9);
}

TEST(FrontDoor, IdenticalSeedsProduceIdenticalResults) {
  auto params = small_params();
  params.offered_qps = 1.5 * estimated_capacity_qps(params, 3);
  const auto a = run(params, /*chaos=*/true);
  const auto b = run(params, /*chaos=*/true);
  EXPECT_EQ(a.issued, b.issued);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.p50_ms, b.p50_ms);  // bit-identical, not approximately
  EXPECT_EQ(a.p99_ms, b.p99_ms);
}

TEST(SloAccountant, CreatesRollupSeriesOnFirstRecord) {
  obs::Rollup rollup{10 * sim::kMillisecond};
  SloAccountant slo;
  slo.attach_telemetry(&rollup, nullptr);
  EXPECT_TRUE(rollup.names().empty());
  Request req;
  req.id = 1;
  slo.on_issued(req);
  slo.on_completed(req, 5 * sim::kMillisecond);
  // No rejection or failure happened, so neither series exists.
  EXPECT_EQ(rollup.names(),
            (std::vector<std::string>{"serve.completed", "serve.issued",
                                      "serve.latency_s"}));

  // Re-attaching to another rollup moves every series with it.
  obs::Rollup other{10 * sim::kMillisecond};
  slo.attach_telemetry(&other, nullptr);
  Request late;
  late.id = 2;
  late.issued = 20 * sim::kMillisecond;
  slo.on_issued(late);
  slo.on_failed(late, 30 * sim::kMillisecond);
  EXPECT_EQ(other.names(),
            (std::vector<std::string>{"serve.failed", "serve.issued"}));
  EXPECT_DOUBLE_EQ(rollup.find("serve.issued")->sum_range(0, sim::kSecond),
                   1.0);
  EXPECT_DOUBLE_EQ(other.find("serve.issued")->sum_range(0, sim::kSecond),
                   1.0);
}

TEST(FrontDoor, RejectsDegenerateParameters) {
  net::Topology topo = net::make_leaf_spine(2, 2, 2);
  sim::Simulator sim;
  net::Router router{topo};
  auto params = small_params();
  params.replication = 0;
  EXPECT_THROW((FrontDoor{sim, topo, router, params}), std::invalid_argument);
  params = small_params();
  params.replicas = 10;  // more than the topology's hosts
  EXPECT_THROW((FrontDoor{sim, topo, router, params}), std::invalid_argument);
}

}  // namespace
}  // namespace rb::serve
