// Layer probes run after the timed phase of a traced rep: each times one
// layer alone on fresh state, so a change to that layer shows in isolation.

#include <array>
#include <cstdint>
#include <vector>

#include "common.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace pb {

namespace {

/// A self-rescheduling event chain. The callback captures about as much as
/// a serving-plane event (a request id, a target, timestamps and a this
/// pointer), beyond std::function's inline buffer.
struct Chain {
  rb::sim::Simulator* sim = nullptr;
  rb::sim::Rng* rng = nullptr;
  std::uint64_t* fired = nullptr;
  std::uint64_t limit = 0;
  rb::sim::EventHandle pending_timer;

  void arm(std::uint64_t request, std::uint32_t target) {
    const rb::sim::SimTime delay =
        1 + static_cast<rb::sim::SimTime>(rng->uniform_index(1'000'000));
    const std::array<std::uint64_t, 3> payload{request, target, 0};
    sim->schedule_in(delay, [this, payload, sent = sim->now()] {
      ++*fired;
      // The previous timer loses its race: cancelled, never fired.
      pending_timer.cancel();
      if (*fired >= limit) return;
      if (payload[0] % 3 == 0) {
        pending_timer = sim->schedule_in(50'000'000, [this] { ++*fired; });
      }
      arm(payload[0] + 1 + static_cast<std::uint64_t>(sent & 1),
          static_cast<std::uint32_t>(payload[1] ^ 1));
    });
  }
};

}  // namespace

double probe_sim_ns_per_event(std::uint64_t seed) {
  constexpr std::size_t kChains = 256;
  constexpr std::uint64_t kEvents = 300'000;
  rb::sim::Simulator sim;
  rb::sim::Rng rng{seed};
  std::uint64_t fired = 0;
  std::vector<Chain> chains(kChains);
  const std::int64_t t0 = now_ns();
  for (std::size_t i = 0; i < kChains; ++i) {
    chains[i] = Chain{&sim, &rng, &fired, kEvents, {}};
    chains[i].arm(i, static_cast<std::uint32_t>(i));
  }
  sim.run();
  const std::int64_t t1 = now_ns();
  return fired == 0 ? 0.0 : static_cast<double>(t1 - t0) / static_cast<double>(fired);
}

double probe_route_ns(std::uint64_t seed) {
  constexpr std::size_t kReplicas = 8;
  constexpr int kHashes = 64;
  constexpr int kRounds = 40;
  const rb::net::Topology topo = rb::net::make_fat_tree(4);
  const rb::net::Router router{topo};
  const auto hosts = topo.nodes_of_kind(rb::net::NodeKind::kHost);
  std::vector<std::pair<rb::net::NodeId, rb::net::NodeId>> pairs;
  for (std::size_t r = 1; r <= kReplicas; ++r) {
    pairs.emplace_back(hosts[0], hosts[r]);
    pairs.emplace_back(hosts[r], hosts[0]);
  }
  rb::sim::Rng rng{seed};
  std::vector<std::uint64_t> hashes(kHashes);
  for (auto& h : hashes) h = rng();
  std::uint64_t calls = 0;
  std::uint64_t hops = 0;
  const std::int64_t t0 = now_ns();
  for (int round = 0; round < kRounds; ++round) {
    for (const auto& [src, dst] : pairs) {
      for (const std::uint64_t h : hashes) {
        hops += router.path(src, dst, h).size();
        ++calls;
      }
    }
  }
  const std::int64_t t1 = now_ns();
  // Keeps the path results live.
  if (hops == 0) return 0.0;
  return static_cast<double>(t1 - t0) / static_cast<double>(calls);
}

HostFloor host_floor() {
  HostFloor f;
  // ALU: a dependent xorshift chain that never leaves the registers.
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  std::int64_t t0 = now_ns();
  for (int i = 0; i < 200'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  f.alu_s = static_cast<double>(now_ns() - t0) * 1e-9;
  // Pointer chase: one random cycle through 16 MiB (Sattolo's shuffle), so
  // nearly every step misses the caches and waits on memory.
  constexpr std::uint32_t kSlots = (16u << 20) / sizeof(std::uint32_t);
  std::vector<std::uint32_t> next(kSlots);
  for (std::uint32_t i = 0; i < kSlots; ++i) next[i] = i;
  rb::sim::Rng rng{x | 1};
  for (std::uint32_t i = kSlots - 1; i > 0; --i) {
    std::swap(next[i], next[rng.uniform_index(i)]);
  }
  std::uint32_t at = 0;
  t0 = now_ns();
  for (int i = 0; i < 5'000'000; ++i) at = next[at];
  f.chase_s = static_cast<double>(now_ns() - t0) * 1e-9;
  f.sink = x + at;
  return f;
}

}  // namespace pb
