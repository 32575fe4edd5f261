// Zero-steady-state-allocation guarantee for the death hot path.
//
// This binary overrides global operator new/delete with counting versions
// (which is why it is a separate test target) and asserts that, once the
// world is warmed up — kernel slab/heap reserved, routing scratch sized,
// trace vectors reserved — an entire death cascade runs without a single
// heap allocation: event scheduling/cancelling (inline callbacks in slab
// slots), routing repair and fallback rebuild (persistent buffers +
// scratch), load/drain refresh, and the drain-diff rescheduling sweep.
//
// The same guarantee is pinned for the planners (CsaPlanner::plan_into and
// the fleet replan run on arenas reused across calls) and for the batched
// wpt kernels (pure array passes over caller storage).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>
#include <thread>
#include <vector>

#include "analysis/scenario.hpp"
#include "common/rng.hpp"
#include "core/fleet_planner.hpp"
#include "core/planners.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"
#include "sim/world.hpp"
#include "svc/service.hpp"
#include "wpt/charging_model.hpp"
#include "wpt/wave.hpp"

namespace {

// Thread-local so multi-threaded service tests can pin the REQUESTING
// thread's path while worker threads execute missions (which allocate
// freely) in parallel.
thread_local bool g_counting = false;
thread_local std::size_t g_allocations = 0;

void* counted_alloc(std::size_t size) {
  if (g_counting) ++g_allocations;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace wrsn::sim {
namespace {

TEST(WorldAllocation, DeathCascadeHotPathDoesNotAllocate) {
  Simulator sim;
  net::TopologyConfig topo;
  topo.node_count = 100;
  topo.region = {{0.0, 0.0}, {400.0, 400.0}};
  topo.comm_range = 65.0;
  Rng topo_rng(42);
  net::Network network = net::generate_topology(topo, topo_rng);

  WorldParams params;
  params.emergency_enabled = true;  // exercise the comparator event path too
  params.update_mode = WorldUpdateMode::Fast;
  World world(sim, std::move(network), params, Rng(7));

  // The trace is append-only output, not part of the update machinery;
  // reserving it is the caller's knob for allocation-free steady state.
  world.trace().requests.reserve(4096);
  world.trace().sessions.reserve(64);
  world.trace().deaths.reserve(1024);
  world.trace().escalations.reserve(4096);

  // Warm up through the first death: the first cascade touches any
  // lazily-grown capacity that remains.
  while (world.trace().deaths.empty() && sim.step()) {
  }
  ASSERT_FALSE(world.trace().deaths.empty());

  // From here on, the entire network starves and dies (nobody charges):
  // every remaining request, escalation, emergency, death, routing repair,
  // and reschedule must run allocation-free.
  g_allocations = 0;
  g_counting = true;
  while (world.alive_count() > 0 && sim.step()) {
  }
  g_counting = false;

  EXPECT_EQ(world.alive_count(), 0u);
  EXPECT_EQ(g_allocations, 0u);
}

TEST(WorldAllocation, MobilityEpochSteadyStateDoesNotAllocate) {
  Simulator sim;
  net::TopologyConfig topo;
  topo.node_count = 100;
  topo.region = {{0.0, 0.0}, {400.0, 400.0}};
  topo.comm_range = 65.0;
  topo.battery_capacity = 1e9;  // death-free: only mobility events fire
  Rng topo_rng(42);
  net::Network network = net::generate_topology(topo, topo_rng);

  WorldParams params;
  params.update_mode = WorldUpdateMode::Fast;
  params.mobility.fraction = 0.3;
  params.mobility.interval = 600.0;
  World world(sim, std::move(network), params, Rng(7));

  // Warm up: early epochs grow the grid buckets, the CSR high-water marks,
  // and the routing scratch to their steady sizes.
  sim.run_until(8 * params.mobility.interval);
  ASSERT_GE(world.update_stats().mobility_epochs, 8u);

  // Steady state: interpolate walkers, rebuild adjacency into persistent
  // buffers, full Dijkstra refresh, drain-diff reschedule — zero heap.
  g_allocations = 0;
  g_counting = true;
  sim.run_until(16 * params.mobility.interval);
  g_counting = false;

  EXPECT_EQ(world.update_stats().mobility_epochs, 16u);
  EXPECT_EQ(g_allocations, 0u);
}

csa::Stop random_stop(Rng& gen, std::size_t index, bool key) {
  csa::Stop stop;
  stop.node = static_cast<net::NodeId>(index);
  stop.position = {gen.uniform(-200.0, 200.0), gen.uniform(-200.0, 200.0)};
  stop.window_open = gen.uniform(0.0, 20'000.0);
  stop.window_close = stop.window_open + gen.uniform(3'600.0, 14'400.0);
  stop.service_time = gen.uniform(600.0, 1'800.0);
  stop.is_key = key;
  stop.utility = key ? 0.0 : gen.uniform(100.0, 8'000.0);
  return stop;
}

TEST(PlannerAllocation, CsaPlanIsAllocationFreeAfterWarmup) {
  Rng gen(42);
  csa::TideInstance inst;
  inst.start_position = {0.0, 0.0};
  inst.speed = 3.0;
  for (std::size_t i = 0; i < 410; ++i) {
    inst.stops.push_back(random_stop(gen, i, i < 10));
  }
  inst.travel_matrix();  // the matrix cache belongs to the instance

  const csa::CsaPlanner planner;
  Rng rng(1);
  csa::Plan plan;
  planner.plan_into(inst, rng, plan);  // warmup sizes every arena
  const double warm_utility = plan.utility;

  g_allocations = 0;
  g_counting = true;
  planner.plan_into(inst, rng, plan);
  g_counting = false;

  EXPECT_EQ(plan.utility, warm_utility);
  EXPECT_EQ(g_allocations, 0u);
}

TEST(PlannerAllocation, FleetReplanIsAllocationFreeAfterWarmup) {
  Rng gen(42);
  csa::FleetInstance inst;
  for (std::size_t m = 0; m < 3; ++m) {
    csa::FleetCharger c;
    c.start_position = {gen.uniform(-200.0, 200.0),
                        gen.uniform(-200.0, 200.0)};
    c.speed = 3.0;
    inst.chargers.push_back(c);
  }
  for (std::size_t i = 0; i < 410; ++i) {
    inst.stops.push_back(random_stop(gen, i, i < 10));
  }

  const csa::CooperativeFleetPlanner planner;
  csa::FleetPlan plan;
  planner.plan_into(inst, plan);  // warmup: arenas + matrix row pools
  const double warm_utility = plan.utility;

  g_allocations = 0;
  g_counting = true;
  planner.plan_into(inst, plan);
  g_counting = false;

  EXPECT_EQ(plan.utility, warm_utility);
  EXPECT_EQ(g_allocations, 0u);
}

TEST(WptAllocation, BatchKernelsDoNotAllocate) {
  const wpt::ChargingModel model;
  Rng gen(9);
  std::vector<wpt::WaveSource> sources;
  for (int s = 0; s < 4; ++s) {
    wpt::WaveSource src =
        model.as_wave_source({gen.uniform(-3.0, 3.0), gen.uniform(-3.0, 3.0)},
                             gen.uniform(0.0, constants::kTwoPi));
    sources.push_back(src);
  }
  constexpr std::size_t kPoints = 512;
  std::vector<Meters> xs(kPoints), ys(kPoints), dist(kPoints);
  for (std::size_t i = 0; i < kPoints; ++i) {
    xs[i] = gen.uniform(-12.0, 12.0);  // some beyond max_range
    ys[i] = gen.uniform(-12.0, 12.0);
    dist[i] = gen.uniform(0.0, 12.0);
  }
  std::vector<Watts> rf(kPoints), dc(kPoints);
  std::vector<double> im(kPoints);

  g_allocations = 0;
  g_counting = true;
  wpt::superposed_rf_power_batch(sources, xs, ys, rf, im);
  model.rectifier().harvest_batch(rf, dc);
  model.dc_at_distances(dist, dc);
  g_counting = false;

  EXPECT_EQ(g_allocations, 0u);
}

// ---------------------------------------------------------------------------
// Mission service: the shared request paths (cache hit, coalesced join) are
// allocation-free on the requesting thread after warmup.  Worker threads
// executing missions allocate freely — the counters are thread_local
// precisely so their work is invisible here.
// ---------------------------------------------------------------------------

svc::MissionRequest service_request(std::uint64_t seed) {
  svc::MissionRequest request;
  request.config = analysis::default_scenario();
  request.config.seed = seed;
  request.config.topology.node_count = 16;
  request.config.topology.region = {{0.0, 0.0}, {160.0, 160.0}};
  request.config.topology.battery_capacity = 2'000.0;
  request.config.world.drain.sensing_power = 0.05;
  request.config.horizon = 7'200.0;
  return request;
}

TEST(ServiceAllocation, CacheHitPathDoesNotAllocate) {
  svc::ServiceOptions options;
  options.threads = 1;
  options.cache_capacity = 64;
  svc::MissionService service(options);
  const svc::MissionRequest request = service_request(3);

  // Warmup: one execution, one hit (the hit also touches every lazily-built
  // piece of the submit path — obs span, key digest, shard lookup).
  const svc::MissionResponse executed = service.submit(request);
  ASSERT_EQ(executed.status, svc::MissionStatus::kOk);
  ASSERT_EQ(service.submit(request).route, svc::MissionRoute::kCacheHit);

  g_allocations = 0;
  g_counting = true;
  svc::MissionResponse hit;
  for (int i = 0; i < 100; ++i) {
    hit = service.submit(request);
  }
  g_counting = false;

  ASSERT_EQ(hit.route, svc::MissionRoute::kCacheHit);
  EXPECT_EQ(std::memcmp(&hit.outcome, &executed.outcome,
                        sizeof(svc::MissionOutcome)),
            0);
  EXPECT_EQ(g_allocations, 0u);
}

TEST(ServiceAllocation, CoalescedJoinPathDoesNotAllocate) {
  svc::ServiceOptions options;
  options.threads = 1;
  options.cache_capacity = 64;
  svc::MissionService service(options);

  // Park every execution until released.  The hook runs on the worker after
  // the flight is registered in the shard table, so `parked` doubles as the
  // "safe to join now" signal.
  std::atomic<bool> parked{false};
  std::atomic<bool> release{false};
  service.set_execution_hook([&] {
    parked.store(true, std::memory_order_release);
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  });

  // Warmup round: creator + join, then drain, so the flight pool, the
  // shard's flight table, and the collector path have all been exercised.
  const svc::MissionRequest warm = service_request(5);
  std::thread warm_creator([&] { service.submit(warm); });
  while (!parked.load(std::memory_order_acquire)) std::this_thread::yield();
  std::thread warm_releaser([&] {
    while (service.stats().coalesced < 1) std::this_thread::yield();
    release.store(true, std::memory_order_release);
  });
  service.submit(warm);
  warm_creator.join();
  warm_releaser.join();
  service.drain();
  parked.store(false, std::memory_order_release);
  release.store(false, std::memory_order_release);

  // Measured round: a fresh scenario executes (parked); this thread joins
  // it.  A releaser thread opens the gate once the join is registered, so
  // the measured thread does nothing but stage-join-wait-copy.
  const svc::MissionRequest request = service_request(6);
  svc::MissionResponse created;
  std::thread creator([&] { created = service.submit(request); });
  while (!parked.load(std::memory_order_acquire)) std::this_thread::yield();
  std::thread releaser([&] {
    while (service.stats().coalesced < 2) std::this_thread::yield();
    release.store(true, std::memory_order_release);
  });

  g_allocations = 0;
  g_counting = true;
  const svc::MissionResponse joined = service.submit(request);
  g_counting = false;

  creator.join();
  releaser.join();
  ASSERT_EQ(joined.status, svc::MissionStatus::kOk);
  ASSERT_EQ(joined.route, svc::MissionRoute::kCoalesced);
  EXPECT_EQ(std::memcmp(&joined.outcome, &created.outcome,
                        sizeof(svc::MissionOutcome)),
            0);
  EXPECT_EQ(g_allocations, 0u);
}

}  // namespace
}  // namespace wrsn::sim
