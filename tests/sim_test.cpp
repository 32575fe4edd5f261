// Tests for the discrete-event kernel and the WRSN world: lazy energy
// accounting, the believed-level request protocol, escalations, deaths,
// routing recomputation, and hardware failures.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.hpp"
#include "sim/simulator.hpp"
#include "sim/world.hpp"

namespace wrsn::sim {
namespace {

using net::NodeId;

TEST(Simulator, OrdersEventsByTime) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(2.0, [&] { order.push_back(2); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.executed(), 3u);
}

TEST(Simulator, SameTimeEventsFireInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, RunUntilAdvancesClockAndStopsAtBoundary) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(5.0, [&] { ++fired; });
  sim.schedule_at(10.0, [&] { ++fired; });
  sim.run_until(7.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 7.0);
  sim.run_until(10.0);  // boundary inclusive
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  int fired = 0;
  const EventId id = sim.schedule_at(1.0, [&] { ++fired; });
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));  // double-cancel reports false
  sim.run_all();
  EXPECT_EQ(fired, 0);
}

TEST(Simulator, CancelOfDeadOrUnknownIdReturnsFalse) {
  Simulator sim;
  const EventId id = sim.schedule_at(1.0, [] {});
  sim.run_all();
  EXPECT_FALSE(sim.cancel(id));             // already fired
  EXPECT_FALSE(sim.cancel(kInvalidEvent));  // never a real id
  EXPECT_FALSE(sim.cancel(~EventId{0}));    // never scheduled
  // Cancel-after-fire with slot reuse: the next schedule may land in the
  // fired event's slab slot, but the generation embedded in the id changed,
  // so the stale id can neither collide with nor cancel the new event.
  int fired = 0;
  const EventId next = sim.schedule_in(1.0, [&] { ++fired; });
  EXPECT_NE(next, id);
  EXPECT_FALSE(sim.cancel(id));  // stale id; must not touch the new event
  EXPECT_EQ(sim.pending(), 1u);
  sim.run_all();
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, RunUntilWithCancelledHeadAdvancesClock) {
  Simulator sim;
  const EventId id = sim.schedule_at(5.0, [] {});
  EXPECT_TRUE(sim.cancel(id));
  // The heap head is a tombstone; run_until must skip it and still advance
  // the clock to the boundary.
  sim.run_until(7.0);
  EXPECT_DOUBLE_EQ(sim.now(), 7.0);
  EXPECT_EQ(sim.executed(), 0u);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, CallbackCanRescheduleIntoItsOwnSlot) {
  // The kernel releases the firing event's slot before invoking its
  // callback, so a callback may schedule into the very slot it fired from.
  // Its own (now stale) id must not be able to cancel the new occupant.
  Simulator sim;
  EventId first = kInvalidEvent;
  int second_fired = 0;
  first = sim.schedule_at(1.0, [&] {
    const EventId next = sim.schedule_in(1.0, [&] { ++second_fired; });
    EXPECT_NE(next, first);
    EXPECT_FALSE(sim.cancel(first));  // the firing event is already dead
  });
  sim.run_all();
  EXPECT_EQ(second_fired, 1);
  EXPECT_EQ(sim.executed(), 2u);
}

TEST(Simulator, CompactionBoundsStaleHeapEntries) {
  Simulator sim;
  std::vector<EventId> ids;
  for (int i = 0; i < 1'000; ++i) {
    ids.push_back(sim.schedule_at(1.0 + i, [] {}));
  }
  // Cancel 90 %: compaction must keep tombstones at no more than half the
  // heap at every step, and the survivors must all still fire.
  for (int i = 0; i < 1'000; ++i) {
    if (i % 10 == 0) continue;
    sim.cancel(ids[i]);
    EXPECT_LE(sim.stale_entries() * 2, sim.heap_size());
  }
  EXPECT_EQ(sim.pending(), 100u);
  sim.run_all();
  EXPECT_EQ(sim.executed(), 100u);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.stale_entries(), 0u);
}

TEST(Simulator, ReserveDoesNotDisturbPendingEvents) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] { ++fired; });
  sim.reserve(10'000);
  sim.schedule_at(2.0, [&] { ++fired; });
  sim.run_all();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, CancelLeavesNoResidueInPendingCount) {
  Simulator sim;
  // Long-run pattern: schedule + cancel-after-fire must not grow any
  // internal tombstone set or corrupt the pending() count.
  for (int round = 0; round < 1'000; ++round) {
    const EventId id = sim.schedule_in(1.0, [] {});
    EXPECT_EQ(sim.pending(), 1u);
    sim.run_all();
    EXPECT_EQ(sim.pending(), 0u);
    EXPECT_FALSE(sim.cancel(id));   // dead; must be a no-op
    EXPECT_EQ(sim.pending(), 0u);   // and leave nothing behind
  }
  EXPECT_EQ(sim.executed(), 1'000u);
}

TEST(Simulator, PendingCountsOnlyLiveEvents) {
  Simulator sim;
  const EventId a = sim.schedule_at(1.0, [] {});
  const EventId b = sim.schedule_at(2.0, [] {});
  sim.schedule_at(3.0, [] {});
  EXPECT_EQ(sim.pending(), 3u);
  EXPECT_TRUE(sim.cancel(a));
  EXPECT_TRUE(sim.cancel(b));
  EXPECT_EQ(sim.pending(), 1u);
  sim.run_all();
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.executed(), 1u);
}

TEST(Simulator, EventsScheduledDuringEventsRun) {
  Simulator sim;
  std::vector<double> times;
  sim.schedule_at(1.0, [&] {
    times.push_back(sim.now());
    sim.schedule_in(0.5, [&] { times.push_back(sim.now()); });
  });
  sim.run_all();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 1.0);
  EXPECT_DOUBLE_EQ(times[1], 1.5);
}

TEST(Simulator, SchedulingInThePastThrows) {
  Simulator sim;
  sim.schedule_at(2.0, [] {});
  sim.run_until(2.0);
  EXPECT_THROW(sim.schedule_at(1.0, [] {}), PreconditionError);
  EXPECT_THROW(sim.schedule_in(-1.0, [] {}), PreconditionError);
  EXPECT_THROW(sim.run_until(1.0), PreconditionError);
}

TEST(Simulator, NullCallbackThrows) {
  Simulator sim;
  EXPECT_THROW(sim.schedule_at(1.0, std::function<void()>{}),
               PreconditionError);
}

TEST(Simulator, StepExecutesOneEvent) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] { ++fired; });
  sim.schedule_at(2.0, [&] { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

// --- world fixtures -------------------------------------------------------

/// Two-node line: node 0 adjacent to sink, node 1 behind it.
net::Network line2(Joules capacity = 1000.0) {
  std::vector<net::SensorSpec> nodes(2);
  nodes[0].id = 0;
  nodes[0].position = {10.0, 0.0};
  nodes[0].data_rate_bps = 1000.0;
  nodes[0].battery_capacity = capacity;
  nodes[1].id = 1;
  nodes[1].position = {20.0, 0.0};
  nodes[1].data_rate_bps = 1000.0;
  nodes[1].battery_capacity = capacity;
  return net::Network(std::move(nodes), {0.0, 0.0}, 12.0);
}

WorldParams small_params() {
  WorldParams params;
  params.request_threshold = 0.3;
  params.patience = 500.0;
  params.min_request_gap = 10.0;
  params.initial_level_min = 1.0;  // start full: deterministic timings
  params.initial_level_max = 1.0;
  params.benign_gain_cv = 0.0;     // deterministic sessions
  params.drain.sensing_power = 1.0;  // 1 W: fast, easy arithmetic
  params.drain.radio.e_elec = 1e-12;  // make radio negligible
  params.drain.radio.e_amp = 1e-15;
  return params;
}

TEST(World, InitialStateFullBatteriesAndRouting) {
  Simulator sim;
  World world(sim, line2(), small_params(), Rng(1));
  EXPECT_EQ(world.alive_count(), 2u);
  EXPECT_NEAR(world.level(0), 1000.0, 1e-9);
  EXPECT_NEAR(world.believed_level(0), 1000.0, 1e-9);
  EXPECT_TRUE(world.routing().reachable[1]);
  EXPECT_EQ(world.routing().parent[1], 0u);
  EXPECT_EQ(world.sink_connected_count(), 2u);
}

TEST(World, LazyDrainMatchesAnalyticLevel) {
  Simulator sim;
  World world(sim, line2(), small_params(), Rng(1));
  const Watts drain = world.drain_rate(1);
  sim.run_until(100.0);
  EXPECT_NEAR(world.level(1), 1000.0 - drain * 100.0, 1e-6);
}

TEST(World, RequestFiresAtBelievedThresholdCrossing) {
  Simulator sim;
  World world(sim, line2(), small_params(), Rng(1));
  std::vector<std::pair<Seconds, NodeId>> requests;
  world.set_request_handler([&](NodeId id) {
    requests.emplace_back(sim.now(), id);
  });
  // drain ~1 W, threshold 300 J -> crossing at ~700 s.
  sim.run_until(650.0);
  EXPECT_TRUE(requests.empty());
  sim.run_until(710.0);
  ASSERT_GE(requests.size(), 1u);
  EXPECT_NEAR(requests[0].first, 700.0, 2.0);
  EXPECT_TRUE(world.has_pending_request(requests[0].second));
}

TEST(World, PredictedRequestMatchesActual) {
  Simulator sim;
  World world(sim, line2(), small_params(), Rng(1));
  Seconds fired = -1.0;
  world.set_request_handler([&](NodeId id) {
    if (id == 0 && fired < 0.0) fired = sim.now();
  });
  const Seconds predicted = world.predicted_request(0);
  sim.run_until(predicted + 1.0);
  EXPECT_NEAR(fired, predicted, 1.0);
}

TEST(World, EscalationFiresAfterPatience) {
  Simulator sim;
  WorldParams params = small_params();
  params.patience = 200.0;  // escalate before the ~1000 s death
  World world(sim, line2(), params, Rng(1));
  std::vector<Seconds> escalations;
  world.add_escalation_listener(
      [&](NodeId) { escalations.push_back(sim.now()); });
  sim.run_until(950.0);  // request ~700 + patience 200
  ASSERT_GE(world.trace().escalations.size(), 1u);
  EXPECT_FALSE(escalations.empty());
  EXPECT_NEAR(escalations[0], 900.0, 3.0);
}

TEST(World, DeathCancelsPendingEscalation) {
  Simulator sim;
  World world(sim, line2(), small_params(), Rng(1));  // patience 500
  std::vector<Seconds> escalations;
  world.add_escalation_listener(
      [&](NodeId) { escalations.push_back(sim.now()); });
  // Death at ~1000 s lands before the ~1200 s escalation deadline.
  sim.run_until(1400.0);
  EXPECT_TRUE(escalations.empty());
  EXPECT_EQ(world.alive_count(), 0u);
}

TEST(World, ServiceCancelsEscalationAndCreditsBelief) {
  Simulator sim;
  WorldParams params = small_params();
  World world(sim, line2(), params, Rng(1));
  bool escalated = false;
  world.add_escalation_listener([&](NodeId) { escalated = true; });
  NodeId requester = net::kInvalidNode;
  world.set_request_handler([&](NodeId id) {
    if (requester == net::kInvalidNode) requester = id;
  });
  sim.run_until(710.0);
  ASSERT_NE(requester, net::kInvalidNode);

  // Serve: start immediately, push 600 J over 100 s, claim 650 expected.
  world.note_service_started(requester);
  world.set_charge_input(requester, 6.0);
  sim.run_until(810.0);
  world.set_charge_input(requester, 0.0);
  world.note_service_ended(requester, 650.0, 600.0);

  sim.run_until(1300.0);  // past the would-be escalation deadline
  EXPECT_FALSE(escalated);
  EXPECT_FALSE(world.has_pending_request(requester));
  // Believed credit = expected 650 on top of ~(level at service end).
  EXPECT_GT(world.believed_level(requester), world.level(requester));
}

TEST(World, SpoofedServiceLeavesBelievedInflated) {
  Simulator sim;
  World world(sim, line2(), small_params(), Rng(1));
  NodeId requester = net::kInvalidNode;
  world.set_request_handler([&](NodeId id) {
    if (requester == net::kInvalidNode) requester = id;
  });
  sim.run_until(710.0);
  ASSERT_NE(requester, net::kInvalidNode);

  // Spoof: no energy flows, but the node is told it got 650 J.
  world.note_service_started(requester);
  world.note_service_ended(requester, 650.0, 0.0);

  const Joules gap =
      world.believed_level(requester) - world.level(requester);
  EXPECT_NEAR(gap, 650.0, 1.0);
  // The node will not re-request until its believed level decays again.
  EXPECT_GT(world.predicted_request(requester), sim.now() + 500.0);
}

TEST(World, NodeDiesWhenBatteryEmpties) {
  Simulator sim;
  World world(sim, line2(), small_params(), Rng(1));
  std::vector<NodeId> deaths;
  world.add_death_listener([&](NodeId id) { deaths.push_back(id); });
  sim.run_until(1100.0);  // 1000 J at ~1 W
  EXPECT_FALSE(deaths.empty());
  EXPECT_EQ(world.trace().deaths.size(), deaths.size());
  for (const NodeId id : deaths) {
    EXPECT_FALSE(world.alive(id));
    EXPECT_NEAR(world.level(id), 0.0, 1e-6);
  }
}

TEST(World, DeathRecordsOutstandingRequestFlag) {
  Simulator sim;
  World world(sim, line2(), small_params(), Rng(1));
  sim.run_until(1100.0);
  // Nobody served the requests, so nodes died while begging.
  ASSERT_FALSE(world.trace().deaths.empty());
  EXPECT_TRUE(world.trace().deaths.front().request_outstanding);
}

TEST(World, DeathTriggersRoutingRecomputation) {
  Simulator sim;
  World world(sim, line2(), small_params(), Rng(1));
  // Kill node 0 by draining it manually: set a huge charge on node 1 so
  // only node 0 dies first (both drain ~1 W; node 0 drains slightly more
  // as the relay).
  std::vector<NodeId> deaths;
  world.add_death_listener([&](NodeId id) { deaths.push_back(id); });
  sim.run_until(1100.0);
  ASSERT_FALSE(deaths.empty());
  if (deaths[0] == 0) {
    // Node 1 lost its relay: unreachable.
    EXPECT_FALSE(world.routing().reachable[1]);
  }
}

TEST(World, ChargingExtendsLifetime) {
  Simulator sim;
  World world(sim, line2(), small_params(), Rng(1));
  // Trickle-charge node 1 at exactly its drain rate: it should never die.
  const Watts drain = world.drain_rate(1);
  world.set_charge_input(1, drain);
  sim.run_until(5000.0);
  EXPECT_TRUE(world.alive(1));
  EXPECT_FALSE(world.alive(0));  // the un-charged relay died long ago
}

TEST(World, SetChargeInputOnDeadNodeReturnsFalse) {
  Simulator sim;
  World world(sim, line2(), small_params(), Rng(1));
  sim.run_until(1100.0);
  ASSERT_FALSE(world.alive(0));
  EXPECT_FALSE(world.set_charge_input(0, 5.0));
}

TEST(World, MinRequestGapRateLimitsReRequests) {
  Simulator sim;
  WorldParams params = small_params();
  params.min_request_gap = 200.0;
  World world(sim, line2(), params, Rng(1));
  // Serve node 1 with zero energy (spoof-like) each time it asks; it can
  // only re-ask after the gap.
  std::vector<Seconds> requests;
  world.set_request_handler([&](NodeId id) {
    if (id != 1) return;
    requests.push_back(sim.now());
    world.note_service_started(id);
    world.note_service_ended(id, 0.0, 0.0);  // nothing credited
  });
  sim.run_until(1000.0);
  for (std::size_t i = 1; i < requests.size(); ++i) {
    EXPECT_GE(requests[i] - requests[i - 1], 200.0 - 1e-6);
  }
}

TEST(World, EmergencyDefenseFiresOnTrueLevel) {
  Simulator sim;
  WorldParams params = small_params();
  params.emergency_enabled = true;
  params.emergency_fraction = 0.10;
  World world(sim, line2(), params, Rng(1));
  NodeId requester = net::kInvalidNode;
  world.set_request_handler([&](NodeId id) {
    if (requester == net::kInvalidNode) requester = id;
    // Spoof every normal request so believed stays high.
    world.note_service_started(id);
    world.note_service_ended(id, 700.0, 0.0);
  });
  sim.run_until(950.0);  // true level hits 10 % at ~900 s
  bool emergency_seen = false;
  for (const RequestRecord& r : world.trace().requests) {
    if (r.emergency) emergency_seen = true;
  }
  EXPECT_TRUE(emergency_seen);
}

TEST(World, NoEmergencyWhenDisabled) {
  Simulator sim;
  World world(sim, line2(), small_params(), Rng(1));
  world.set_request_handler([&](NodeId id) {
    world.note_service_started(id);
    world.note_service_ended(id, 700.0, 0.0);
  });
  sim.run_until(1100.0);
  for (const RequestRecord& r : world.trace().requests) {
    EXPECT_FALSE(r.emergency);
  }
}

TEST(World, HardwareFailuresKillWithoutDraining) {
  Simulator sim;
  WorldParams params = small_params();
  params.hardware_mtbf = 400.0;  // aggressive: both nodes die fast
  World world(sim, line2(), params, Rng(3));
  sim.run_until(3000.0);
  EXPECT_EQ(world.alive_count(), 0u);
  EXPECT_GE(world.trace().deaths.size(), 2u);
}

TEST(World, ParamsValidation) {
  WorldParams params;
  params.request_threshold = 0.0;
  EXPECT_THROW(params.validate(), ConfigError);
  params = WorldParams{};
  params.charge_target_fraction = 0.2;  // below threshold
  EXPECT_THROW(params.validate(), ConfigError);
  params = WorldParams{};
  params.emergency_fraction = 0.5;  // above request threshold
  EXPECT_THROW(params.validate(), ConfigError);
  params = WorldParams{};
  params.initial_level_min = 0.9;
  params.initial_level_max = 0.5;
  EXPECT_THROW(params.validate(), ConfigError);
  params = WorldParams{};
  params.hardware_mtbf = -1.0;
  EXPECT_THROW(params.validate(), ConfigError);
}

TEST(World, PlannedSessionHelpersAreConsistent) {
  Simulator sim;
  World world(sim, line2(), small_params(), Rng(1));
  const Joules deficit = 480.0;
  const Seconds duration = world.planned_session_duration(deficit);
  EXPECT_NEAR(world.expected_session_gain(duration), deficit, 1e-9);
}

TEST(World, HardwareFailureRecomputesRoutingBeforeDeathListeners) {
  // Regression: a death listener plans against the post-death topology, so
  // routing AND drain rates must be updated before listeners run.  Sweep a
  // few seeds so both death orders (relay first, leaf first) are covered.
  bool relay_case_seen = false;
  for (unsigned seed = 1; seed <= 6; ++seed) {
    Simulator sim;
    WorldParams params = small_params();
    params.hardware_mtbf = 400.0;
    World world(sim, line2(), params, Rng(seed));
    world.add_death_listener([&](NodeId id) {
      EXPECT_FALSE(world.alive(id));
      EXPECT_FALSE(world.routing().reachable[id]);
      if (id == 0 && world.alive(1)) {
        // Node 1 lost its relay: by listener time it must already be
        // unreachable and paying only the sensing floor.
        EXPECT_FALSE(world.routing().reachable[1]);
        EXPECT_EQ(world.drain_rate(1), params.drain.sensing_power);
        relay_case_seen = true;
      }
    });
    sim.run_until(3000.0);
    EXPECT_EQ(world.alive_count(), 0u);
  }
  EXPECT_TRUE(relay_case_seen);
}

TEST(World, PendingIndexTracksRequestsServiceAndDeaths) {
  Simulator sim;
  World world(sim, line2(), small_params(), Rng(1));
  EXPECT_TRUE(world.pending_nodes().empty());
  sim.run_until(750.0);  // believed level crosses 30 % at ~700 s
  const std::vector<NodeId>& pending = world.pending_nodes();
  ASSERT_FALSE(pending.empty());
  EXPECT_TRUE(std::is_sorted(pending.begin(), pending.end()));
  EXPECT_EQ(pending.size(), world.pending_requests().size());
  for (const NodeId id : pending) {
    EXPECT_TRUE(world.alive(id));
    EXPECT_TRUE(world.has_pending_request(id));
    EXPECT_EQ(world.pending_request(id).node, id);
  }
  // Service removes a node from the index immediately.
  const NodeId served = pending.front();
  world.note_service_started(served);
  EXPECT_FALSE(world.has_pending_request(served));
  for (const NodeId id : world.pending_nodes()) EXPECT_NE(id, served);
  world.note_service_ended(served, 0.0, 0.0);
  // Deaths evict any outstanding entries.
  sim.run_until(1500.0);
  EXPECT_EQ(world.alive_count(), 0u);
  EXPECT_TRUE(world.pending_nodes().empty());
}

TEST(World, GainFactorStatistics) {
  Simulator sim;
  WorldParams params = small_params();
  params.benign_gain_mean = 0.85;
  params.benign_gain_cv = 0.2;
  World world(sim, line2(), params, Rng(9));
  double sum = 0.0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    const double f = world.draw_genuine_gain_factor();
    EXPECT_GE(f, 0.4);
    EXPECT_LE(f, 1.6);
    sum += f;
  }
  EXPECT_NEAR(sum / n, 0.85, 0.02);  // clamped draw stays unbiased
}

// --- waypoint mobility ----------------------------------------------------

/// Small random cloud with every node sink-connected, roomy batteries so no
/// one dies during short mobility horizons.
net::Network cloud(std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<net::SensorSpec> nodes(count);
  for (net::NodeId i = 0; i < count; ++i) {
    nodes[i].id = i;
    nodes[i].position = {rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)};
    nodes[i].data_rate_bps = 500.0;
    nodes[i].battery_capacity = 1e7;
  }
  return net::Network(std::move(nodes), {50.0, 50.0}, 160.0);
}

TEST(Mobility, ParamsValidation) {
  MobilityParams p;
  EXPECT_NO_THROW(p.validate());  // disabled by default
  p.fraction = 1.5;
  EXPECT_THROW(p.validate(), ConfigError);
  p = MobilityParams{};
  p.fraction = 0.5;
  p.interval = 0.0;
  EXPECT_THROW(p.validate(), ConfigError);
  p = MobilityParams{};
  p.fraction = 0.5;
  p.speed_max = 0.1;  // below speed_min default
  EXPECT_THROW(p.validate(), ConfigError);
  p = MobilityParams{};
  p.fraction = 0.5;
  p.pause_max = -1.0;
  EXPECT_THROW(p.validate(), ConfigError);
}

TEST(Mobility, WalksStayInsideInitialHull) {
  const net::Network base = cloud(30, 9);
  MobilityParams p;
  p.fraction = 1.0;
  p.speed_max = 3.0;
  net::Network net = cloud(30, 9);
  MobilityModel model(p, net, Rng(4).fork("mobility"));
  ASSERT_TRUE(model.enabled());
  EXPECT_EQ(model.mobile_count(), 30u);

  geom::Vec2 lo = base.node(0).position, hi = lo;
  for (const auto& spec : base.nodes()) {
    lo.x = std::min(lo.x, spec.position.x);
    lo.y = std::min(lo.y, spec.position.y);
    hi.x = std::max(hi.x, spec.position.x);
    hi.y = std::max(hi.y, spec.position.y);
  }
  for (const Seconds t : {600.0, 1'200.0, 7'200.0, 86'400.0}) {
    model.advance_to(t, net);
    for (const auto& spec : net.nodes()) {
      EXPECT_GE(spec.position.x, lo.x - 1e-9);
      EXPECT_LE(spec.position.x, hi.x + 1e-9);
      EXPECT_GE(spec.position.y, lo.y - 1e-9);
      EXPECT_LE(spec.position.y, hi.y + 1e-9);
    }
  }
}

TEST(Mobility, AdvanceIsAPureFunctionOfTime) {
  // Two models with the same rng must land every node on identical
  // positions for the same epoch time — this is what makes Fast and
  // Reference worlds see the same geometry.
  MobilityParams p;
  p.fraction = 0.6;
  net::Network a = cloud(25, 13);
  net::Network b = cloud(25, 13);
  MobilityModel ma(p, a, Rng(21).fork("mobility"));
  MobilityModel mb(p, b, Rng(21).fork("mobility"));
  EXPECT_EQ(ma.mobile_count(), mb.mobile_count());
  for (const Seconds t : {900.0, 1'800.0, 10'000.0}) {
    ma.advance_to(t, a);
    mb.advance_to(t, b);
    for (net::NodeId i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a.node(i).position, b.node(i).position) << "node " << i;
    }
  }
}

TEST(World, MobilityEpochsMoveNodesOnInterval) {
  Simulator sim;
  WorldParams params = small_params();
  params.drain.sensing_power = 1e-4;  // nobody dies in this horizon
  params.mobility.fraction = 0.5;
  params.mobility.interval = 600.0;
  World world(sim, cloud(20, 5), params, Rng(3));
  std::vector<geom::Vec2> before;
  for (net::NodeId i = 0; i < world.network().size(); ++i) {
    before.push_back(world.network().node(i).position);
  }
  sim.run_until(3'000.0);
  EXPECT_EQ(world.update_stats().mobility_epochs, 5u);
  std::size_t moved = 0;
  for (net::NodeId i = 0; i < world.network().size(); ++i) {
    if (world.network().node(i).position != before[i]) ++moved;
  }
  EXPECT_GT(moved, 0u);
}

TEST(World, MobilityEpochChainStopsWhenAllDead) {
  // run_all() must terminate: the epoch chain ends once nobody is alive.
  Simulator sim;
  WorldParams params = small_params();
  params.drain.sensing_power = 5.0;  // tiny batteries drain in ~200 s
  params.mobility.fraction = 1.0;
  params.mobility.interval = 50.0;
  net::Network net = line2();
  World world(sim, std::move(net), params, Rng(6));
  sim.run_all();
  EXPECT_EQ(world.alive_count(), 0u);
}

TEST(World, CoverageWeightBoostsUncoveredNodes) {
  Simulator sim;
  WorldParams params = small_params();
  params.coverage.k = 3;
  params.coverage.bonus = 2.0;
  World world(sim, line2(), params, Rng(1));
  // Node 0 and 1 cover each other only: 1 coverer < k = 3 for both.
  const double w = world.coverage_weight(0);
  EXPECT_NEAR(w, 1.0 + 2.0 * (3.0 - 1.0) / 3.0, 1e-12);
  // With coverage disabled, the weight is identically 1.
  Simulator sim2;
  World plain(sim2, line2(), small_params(), Rng(1));
  EXPECT_DOUBLE_EQ(plain.coverage_weight(0), 1.0);
}

}  // namespace
}  // namespace wrsn::sim
