// Fault-injection layer: plan compilation, per-kind injection semantics,
// metrics parity, and the scenario fuzzer's oracles (including the
// self-test that proves the oracles catch a deliberately broken planner).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <string>

#include "analysis/fuzz.hpp"
#include "analysis/scenario.hpp"
#include "common/check.hpp"
#include "core/orchestrator.hpp"
#include "core/planners.hpp"
#include "fault/fault.hpp"
#include "fault/injector.hpp"
#include "mc/agent.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"

namespace wrsn {
namespace {

/// Small but activity-dense mission: tight batteries and an elevated
/// sensing floor make requests, sessions, escalations, and deaths all fit
/// inside a 12 h horizon.
analysis::ScenarioConfig active_scenario(std::uint64_t seed) {
  analysis::ScenarioConfig cfg = analysis::default_scenario();
  cfg.seed = seed;
  cfg.topology.node_count = 30;
  cfg.topology.region = {{0.0, 0.0}, {220.0, 220.0}};
  cfg.topology.battery_capacity = 2'500.0;
  cfg.world.drain.sensing_power = 0.05;
  cfg.world.initial_level_min = 0.35;
  cfg.world.initial_level_max = 0.60;
  cfg.world.patience = 3'600.0;
  cfg.horizon = 43'200.0;
  cfg.attack.campaign_deadline = cfg.horizon;
  return cfg;
}

// ---------------------------------------------------------------------------
// FaultParams validation
// ---------------------------------------------------------------------------

TEST(FaultParams, RejectsNegativeRates) {
  fault::FaultParams p;
  p.mc_breakdown_mtbf = -1.0;
  EXPECT_THROW(p.validate(), ConfigError);

  p = {};
  p.battery_drift_mtbf = -0.5;
  EXPECT_THROW(p.validate(), ConfigError);

  p = {};
  p.escalation_drop_prob = 1.2;
  EXPECT_THROW(p.validate(), ConfigError);
}

TEST(FaultParams, RejectsInconsistentCombinations) {
  fault::FaultParams p;
  p.escalation_drop_prob = 0.6;
  p.escalation_delay_prob = 0.6;  // sums past 1
  EXPECT_THROW(p.validate(), ConfigError);

  p = {};
  p.node_burst_mtbf = 1'000.0;
  p.node_burst_size = 0;
  EXPECT_THROW(p.validate(), ConfigError);

  p = {};
  p.phase_noise_mtbf = 1'000.0;
  p.phase_noise_scale = 0.5;  // would *improve* calibration
  EXPECT_THROW(p.validate(), ConfigError);

  p = {};
  p.mc_breakdown_mtbf = 1'000.0;
  p.mc_repair_mean = 0.0;
  EXPECT_THROW(p.validate(), ConfigError);
}

TEST(FaultParams, DefaultsAreValidAndDisabled) {
  const fault::FaultParams p;
  EXPECT_NO_THROW(p.validate());
  EXPECT_FALSE(p.any());
}

// ---------------------------------------------------------------------------
// FaultPlan compilation
// ---------------------------------------------------------------------------

fault::FaultParams all_kinds_params() {
  fault::FaultParams p;
  p.mc_breakdown_mtbf = 10'000.0;
  p.mc_repair_mean = 1'800.0;
  p.node_burst_mtbf = 8'000.0;
  p.node_burst_size = 2;
  p.phase_noise_mtbf = 9'000.0;
  p.phase_noise_duration = 1'200.0;
  p.phase_noise_scale = 20.0;
  p.escalation_drop_prob = 0.1;
  p.escalation_delay_prob = 0.2;
  p.escalation_delay_max = 600.0;
  p.battery_drift_mtbf = 7'000.0;
  p.battery_drift_power = 0.01;
  p.battery_drift_duration = 3'600.0;
  return p;
}

TEST(FaultPlan, CompileIsDeterministic) {
  const fault::FaultParams p = all_kinds_params();
  const Rng rng(99);
  const fault::FaultPlan a =
      fault::FaultPlan::compile(p, 86'400.0, 50, rng.fork("faults"));
  const fault::FaultPlan b =
      fault::FaultPlan::compile(p, 86'400.0, 50, rng.fork("faults"));

  ASSERT_EQ(a.mc_outages.size(), b.mc_outages.size());
  for (std::size_t i = 0; i < a.mc_outages.size(); ++i) {
    EXPECT_EQ(a.mc_outages[i].start, b.mc_outages[i].start);
    EXPECT_EQ(a.mc_outages[i].end, b.mc_outages[i].end);
  }
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].time, b.events[i].time);
    EXPECT_EQ(a.events[i].kind, b.events[i].kind);
    EXPECT_EQ(a.events[i].magnitude, b.events[i].magnitude);
  }
  EXPECT_FALSE(a.empty());
}

TEST(FaultPlan, ScheduleIsSortedAndInsideHorizon) {
  const Seconds horizon = 86'400.0;
  const fault::FaultPlan plan = fault::FaultPlan::compile(
      all_kinds_params(), horizon, 50, Rng(7).fork("faults"));

  for (std::size_t i = 0; i < plan.events.size(); ++i) {
    EXPECT_GE(plan.events[i].time, 0.0);
    EXPECT_LT(plan.events[i].time, horizon);
    if (i > 0) EXPECT_LE(plan.events[i - 1].time, plan.events[i].time);
  }
  for (std::size_t i = 0; i < plan.mc_outages.size(); ++i) {
    EXPECT_LT(plan.mc_outages[i].start, plan.mc_outages[i].end);
    if (i > 0) {
      EXPECT_LT(plan.mc_outages[i - 1].end, plan.mc_outages[i].start);
    }
  }
}

TEST(FaultPlan, NormalizeOutagesMergesOverlaps) {
  const auto merged = fault::FaultPlan::normalize_outages(
      {{100.0, 200.0}, {50.0, 120.0}, {300.0, 300.0}, {150.0, 250.0}}, 0.0);
  // {50,120} ∪ {100,200} ∪ {150,250} chain-merge; {300,300} is degenerate.
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].start, 50.0);
  EXPECT_EQ(merged[0].end, 250.0);
}

TEST(FaultPlan, NormalizeOutagesAppliesPermanentBreakdown) {
  const auto merged = fault::FaultPlan::normalize_outages(
      {{100.0, 200.0}, {900.0, 1'200.0}}, 1'000.0);
  // The second interval straddles the permanent cut: its start folds into
  // the infinite outage.  The first survives untouched.
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0].start, 100.0);
  EXPECT_EQ(merged[0].end, 200.0);
  EXPECT_EQ(merged[1].start, 900.0);
  EXPECT_TRUE(std::isinf(merged[1].end));
}

TEST(FaultPlan, PermanentOnlyPlanHasOneInfiniteOutage) {
  fault::FaultParams p;
  p.mc_permanent_at = 10'000.0;
  const fault::FaultPlan plan =
      fault::FaultPlan::compile(p, 86'400.0, 30, Rng(1).fork("faults"));
  ASSERT_EQ(plan.mc_outages.size(), 1u);
  EXPECT_EQ(plan.mc_outages[0].start, 10'000.0);
  EXPECT_TRUE(std::isinf(plan.mc_outages[0].end));
}

// ---------------------------------------------------------------------------
// Agent breakdown lifecycle (direct, no scenario layer)
// ---------------------------------------------------------------------------

// Both agents share one vehicle state machine (mc::VehicleAgent); each
// lifecycle test drives it through the benign service and the attacker.
// The one node is no cut vertex, so the attacker selects no key target and
// serves it genuinely, like the benign service.

// Unscoped, so the test names end in /0 (ChargerAgent) and /1 (AttackAgent)
// both in gtest and in ctest.
enum VehicleKind { kChargerAgent, kAttackAgent };

std::unique_ptr<mc::VehicleAgent> make_vehicle(VehicleKind kind,
                                               sim::World& world,
                                               const csa::Planner& planner) {
  if (kind == kChargerAgent) {
    mc::AgentParams ap;
    ap.charger.depot = {0.0, 0.0};
    return std::make_unique<mc::ChargerAgent>(world, ap);
  }
  csa::AttackParams ap;
  ap.charger.depot = {0.0, 0.0};
  return std::make_unique<csa::AttackAgent>(world, ap, planner, Rng(5));
}

/// One sensor 5 m from the sink, draining fast enough to need service.
struct OneNodeWorld {
  explicit OneNodeWorld(std::uint64_t seed)
      : world(sim, network(), params(), Rng(seed)) {}
  static net::Network network() {
    std::vector<net::SensorSpec> specs(1);
    specs[0].id = 0;
    specs[0].position = {5.0, 0.0};
    specs[0].data_rate_bps = 1'000.0;
    specs[0].battery_capacity = 1'000.0;
    return net::Network(std::move(specs), {0.0, 0.0}, 10.0);
  }
  static sim::WorldParams params() {
    sim::WorldParams wp;
    wp.drain.sensing_power = 0.05;
    return wp;
  }
  sim::Simulator sim;
  sim::World world;
};

class FaultAgent : public ::testing::TestWithParam<VehicleKind> {};

INSTANTIATE_TEST_SUITE_P(Vehicles, FaultAgent,
                         ::testing::Values(kChargerAgent, kAttackAgent));

TEST_P(FaultAgent, BreakdownHaltsAndRepairResumesService) {
  OneNodeWorld w(11);
  const csa::CsaPlanner planner;
  const auto vehicle = make_vehicle(GetParam(), w.world, planner);
  mc::VehicleAgent& agent = *vehicle;
  agent.start();

  // Break the vehicle just before the node's first request (t ~ 12160 s)
  // and repair it an hour later.  The request waits out the outage, so
  // only the repair itself can restart service: it must, promptly, and keep
  // the node alive to the horizon.
  w.sim.schedule_at(12'000.0,
                    [&] { agent.fault_breakdown(0.25, /*permanent=*/false); });
  w.sim.schedule_at(15'600.0, [&] { agent.fault_repair(); });
  w.sim.run_until(100'000.0);

  EXPECT_FALSE(agent.broken());
  EXPECT_TRUE(w.world.alive(0));
  const auto& sessions = w.world.trace().sessions;
  ASSERT_FALSE(w.world.trace().requests.empty());
  EXPECT_GT(w.world.trace().requests.front().time, 12'000.0);
  EXPECT_TRUE(std::any_of(sessions.begin(), sessions.end(), [](const auto& s) {
    return s.start >= 15'600.0 && s.start < 16'200.0;
  })) << "service did not resume on repair";
  // The breakdown drained a quarter of the vehicle's battery.
  EXPECT_LE(agent.charger().battery_level(),
            0.75 * agent.charger().params().battery_capacity);
}

TEST_P(FaultAgent, PermanentBreakdownNeverRepairs) {
  OneNodeWorld w(12);
  const csa::CsaPlanner planner;
  const auto vehicle = make_vehicle(GetParam(), w.world, planner);
  mc::VehicleAgent& agent = *vehicle;
  agent.start();

  w.sim.schedule_at(2'000.0,
                    [&] { agent.fault_breakdown(0.1, /*permanent=*/true); });
  w.sim.schedule_at(3'000.0, [&] { agent.fault_repair(); });  // must no-op
  w.sim.run_until(100'000.0);

  EXPECT_TRUE(agent.broken());
  // Unserved, the node exhausts; the simulation still terminates cleanly.
  EXPECT_FALSE(w.world.alive(0));
  EXPECT_EQ(w.world.trace().deaths.size(), 1u);
  for (const auto& s : w.world.trace().sessions) {
    EXPECT_LE(s.start, 2'000.0);
  }
}

// ---------------------------------------------------------------------------
// Scenario-level injection per fault kind
// ---------------------------------------------------------------------------

TEST(FaultScenario, BreakdownsWithRepairsKeepServiceRunning) {
  analysis::ScenarioConfig cfg = active_scenario(301);
  cfg.faults.mc_breakdown_mtbf = cfg.horizon / 4.0;
  cfg.faults.mc_repair_mean = 1'800.0;
  cfg.faults.mc_budget_loss = 0.05;

  const analysis::ScenarioResult result =
      analysis::run_scenario(cfg, analysis::ChargerMode::Attack);
  EXPECT_GE(result.fault_stats.mc_breakdowns, 1u);
  EXPECT_LE(result.fault_stats.mc_repairs, result.fault_stats.mc_breakdowns);
  EXPECT_GT(result.trace.sessions.size(), 0u);

  // Breakdown-truncated sessions must still be well-ordered per node.
  std::map<net::NodeId, Seconds> last_end;
  for (const auto& s : result.trace.sessions) {
    EXPECT_LE(s.start, s.end + 1e-9);
    const auto it = last_end.find(s.node);
    if (it != last_end.end()) EXPECT_GE(s.start, it->second - 1e-6);
    last_end[s.node] = std::max(last_end[s.node], s.end);
  }
}

TEST(FaultScenario, PermanentBreakdownDoesNotHangTheMission) {
  analysis::ScenarioConfig cfg = active_scenario(302);
  cfg.faults.mc_permanent_at = cfg.horizon / 4.0;

  const analysis::ScenarioResult result =
      analysis::run_scenario(cfg, analysis::ChargerMode::Benign);
  EXPECT_EQ(result.fault_stats.mc_breakdowns, 1u);
  EXPECT_EQ(result.fault_stats.mc_repairs, 0u);
  // With the charger gone, the protocol must still progress: unserved
  // requests escalate (or nodes exhaust) rather than silently starving.
  EXPECT_GT(result.trace.escalations.size() + result.trace.deaths.size(), 0u);
  // No session can start after the vehicle died for good.
  for (const auto& s : result.trace.sessions) {
    EXPECT_LE(s.start, cfg.faults.mc_permanent_at + 1e-6);
  }
}

TEST(FaultScenario, NodeBurstsKillAndAreTallied) {
  analysis::ScenarioConfig cfg = active_scenario(303);
  cfg.faults.node_burst_mtbf = cfg.horizon / 6.0;
  cfg.faults.node_burst_size = 3;

  const analysis::ScenarioResult result =
      analysis::run_scenario(cfg, analysis::ChargerMode::Attack);
  EXPECT_GT(result.fault_stats.node_burst_kills, 0u);
  // Every burst kill is a real death in the trace (exhaustion deaths can
  // add more).
  EXPECT_GE(result.trace.deaths.size(),
            std::size_t(result.fault_stats.node_burst_kills));
}

TEST(FaultScenario, EscalationDropSuppressesEveryReport) {
  // Collapse every service window so the mission generates escalations.
  analysis::ScenarioConfig cfg = active_scenario(304);
  cfg.attack.window_margin = cfg.world.patience * 2.0;

  const analysis::ScenarioResult baseline =
      analysis::run_scenario(cfg, analysis::ChargerMode::Attack);
  ASSERT_GT(baseline.trace.escalations.size(), 0u);

  cfg.faults.escalation_drop_prob = 1.0;
  const analysis::ScenarioResult dropped =
      analysis::run_scenario(cfg, analysis::ChargerMode::Attack);
  EXPECT_EQ(dropped.trace.escalations.size(), 0u);
  EXPECT_GT(dropped.fault_stats.escalations_dropped, 0u);
}

TEST(FaultScenario, EscalationDelayDefersButStillDelivers) {
  analysis::ScenarioConfig cfg = active_scenario(305);
  cfg.attack.window_margin = cfg.world.patience * 2.0;

  const analysis::ScenarioResult baseline =
      analysis::run_scenario(cfg, analysis::ChargerMode::Attack);
  ASSERT_GT(baseline.trace.escalations.size(), 0u);

  cfg.faults.escalation_delay_prob = 1.0;
  cfg.faults.escalation_delay_max = 600.0;
  const analysis::ScenarioResult delayed =
      analysis::run_scenario(cfg, analysis::ChargerMode::Attack);
  EXPECT_GT(delayed.fault_stats.escalations_delayed, 0u);
  ASSERT_GT(delayed.trace.escalations.size(), 0u);
  // The tamper only postpones the report: the first delivered escalation
  // cannot precede the untampered one (deadlines never tighten into the
  // past — the PR 3 fire_emergency bug class).
  EXPECT_GE(delayed.trace.escalations.front().time,
            baseline.trace.escalations.front().time - 1e-6);
}

TEST(FaultWorld, SelfDischargeDriftAcceleratesDeath) {
  const auto build = [](sim::Simulator& sim) {
    std::vector<net::SensorSpec> specs(1);
    specs[0].id = 0;
    specs[0].position = {5.0, 0.0};
    specs[0].data_rate_bps = 1'000.0;
    specs[0].battery_capacity = 1'000.0;
    net::Network network(std::move(specs), {0.0, 0.0}, 10.0);
    sim::WorldParams wp;
    wp.drain.sensing_power = 0.01;
    return std::make_unique<sim::World>(sim, std::move(network), wp, Rng(21));
  };

  sim::Simulator sim_a;
  const auto world_a = build(sim_a);
  sim_a.run_until(500'000.0);
  ASSERT_EQ(world_a->trace().deaths.size(), 1u);

  sim::Simulator sim_b;
  const auto world_b = build(sim_b);
  ASSERT_TRUE(world_b->set_self_discharge(0, 0.05));
  EXPECT_EQ(world_b->self_discharge(0), 0.05);
  sim_b.run_until(500'000.0);
  ASSERT_EQ(world_b->trace().deaths.size(), 1u);

  // The parasitic drain is invisible to the node's own SoC estimate but
  // very real to the battery: death comes much sooner.
  EXPECT_LT(world_b->trace().deaths[0].time,
            world_a->trace().deaths[0].time / 2.0);
}

TEST(FaultScenario, PhaseNoiseWindowsAreCounted) {
  analysis::ScenarioConfig cfg = active_scenario(306);
  cfg.faults.phase_noise_mtbf = cfg.horizon / 4.0;
  cfg.faults.phase_noise_duration = 3'600.0;
  cfg.faults.phase_noise_scale = 40.0;

  const analysis::ScenarioResult result =
      analysis::run_scenario(cfg, analysis::ChargerMode::Attack);
  EXPECT_GT(result.fault_stats.phase_noise_windows, 0u);
  EXPECT_GT(result.trace.sessions.size(), 0u);
}

TEST(FaultScenario, BenignRunAbsorbsPhaseNoise) {
  analysis::ScenarioConfig cfg = active_scenario(307);
  cfg.faults.phase_noise_mtbf = cfg.horizon / 4.0;

  const analysis::ScenarioResult result =
      analysis::run_scenario(cfg, analysis::ChargerMode::Benign);
  // No spoofing emitter to degrade: the windows land in `absorbed`.
  EXPECT_EQ(result.fault_stats.phase_noise_windows, 0u);
  EXPECT_GT(result.fault_stats.absorbed, 0u);
}

TEST(FaultScenario, ObsMetricsMatchFaultStats) {
  analysis::ScenarioConfig cfg = active_scenario(308);
  cfg.faults.mc_breakdown_mtbf = cfg.horizon / 4.0;
  cfg.faults.mc_repair_mean = 1'800.0;
  cfg.faults.node_burst_mtbf = cfg.horizon / 5.0;
  cfg.faults.battery_drift_mtbf = cfg.horizon / 5.0;
  cfg.faults.battery_drift_power = 0.01;

  obs::MetricRegistry registry;
  analysis::ScenarioResult result;
  {
    obs::ScopedRegistry scope(&registry);
    result = analysis::run_scenario(cfg, analysis::ChargerMode::Attack);
  }
  const fault::FaultStats& fs = result.fault_stats;
  EXPECT_GT(fs.injected_total(), 0u);
  EXPECT_EQ(registry.value(obs::Metric::kFaultMcBreakdowns),
            double(fs.mc_breakdowns));
  EXPECT_EQ(registry.value(obs::Metric::kFaultMcRepairs),
            double(fs.mc_repairs));
  EXPECT_EQ(registry.value(obs::Metric::kFaultNodeBurstKills),
            double(fs.node_burst_kills));
  EXPECT_EQ(registry.value(obs::Metric::kFaultPhaseNoiseWindows),
            double(fs.phase_noise_windows));
  EXPECT_EQ(registry.value(obs::Metric::kFaultEscalationsDropped),
            double(fs.escalations_dropped));
  EXPECT_EQ(registry.value(obs::Metric::kFaultEscalationsDelayed),
            double(fs.escalations_delayed));
  EXPECT_EQ(registry.value(obs::Metric::kFaultDriftNodes),
            double(fs.drift_nodes));
  EXPECT_EQ(registry.value(obs::Metric::kFaultAbsorbed), double(fs.absorbed));
}

TEST(FaultScenario, FaultedMissionIsSeedDeterministic) {
  analysis::ScenarioConfig cfg = active_scenario(309);
  cfg.faults = all_kinds_params();

  const analysis::ScenarioResult a =
      analysis::run_scenario(cfg, analysis::ChargerMode::Attack);
  const analysis::ScenarioResult b =
      analysis::run_scenario(cfg, analysis::ChargerMode::Attack);
  ASSERT_EQ(a.trace.sessions.size(), b.trace.sessions.size());
  for (std::size_t i = 0; i < a.trace.sessions.size(); ++i) {
    EXPECT_EQ(a.trace.sessions[i].node, b.trace.sessions[i].node);
    EXPECT_EQ(a.trace.sessions[i].start, b.trace.sessions[i].start);
  }
  EXPECT_EQ(a.fault_stats.injected_total(), b.fault_stats.injected_total());
  EXPECT_EQ(a.fault_stats.absorbed, b.fault_stats.absorbed);
}

// ---------------------------------------------------------------------------
// Fuzzer: repro codec, smoke campaign, oracle self-test
// ---------------------------------------------------------------------------

TEST(Fuzzer, ReproLineRoundTrips) {
  Rng rng(5);
  const analysis::FuzzOverrides overrides =
      analysis::generate_fuzz_overrides(rng);
  const std::string line = analysis::format_repro(overrides);
  EXPECT_EQ(analysis::parse_repro(line), overrides);
}

TEST(Fuzzer, ParseReproRejectsMalformedLines) {
  EXPECT_THROW(analysis::parse_repro(""), ConfigError);
  EXPECT_THROW(analysis::parse_repro("seed"), ConfigError);
  EXPECT_THROW(analysis::parse_repro("seed="), ConfigError);
  EXPECT_THROW(analysis::parse_repro("seed=1;seed=2"), ConfigError);
}

TEST(Fuzzer, SmokeCampaignAllOraclesGreen) {
  const analysis::FuzzReport report =
      analysis::run_fuzz_campaign(/*trials=*/200, /*seed=*/7);
  EXPECT_EQ(report.trials, 200u);
  EXPECT_EQ(report.failed_trials, 0u) << (report.first_failures.empty()
                                              ? ""
                                              : report.first_failures.front());
  EXPECT_NE(report.digest, 0u);
}

TEST(Fuzzer, CampaignDigestIsThreadCountIndependent) {
  // Pinned at 1/2/8 workers: trial generation is sequential from a fixed
  // fork and the fold walks verdicts in trial order, so the digest must be
  // a pure function of (trials, seed) however the pool is sized.
  const analysis::FuzzReport one =
      analysis::run_fuzz_campaign(/*trials=*/40, /*seed=*/13, /*threads=*/1);
  const analysis::FuzzReport two =
      analysis::run_fuzz_campaign(/*trials=*/40, /*seed=*/13, /*threads=*/2);
  const analysis::FuzzReport eight =
      analysis::run_fuzz_campaign(/*trials=*/40, /*seed=*/13, /*threads=*/8);
  EXPECT_EQ(one.digest, two.digest);
  EXPECT_EQ(one.digest, eight.digest);
  EXPECT_EQ(one.failed_trials, two.failed_trials);
  EXPECT_EQ(one.failed_trials, eight.failed_trials);
}

TEST(Fuzzer, MutationPoolCoversEveryScenarioFamily) {
  // Each scenario-frontier family must actually appear in the generator's
  // output — a family that never mutates is a family the differential
  // oracle never exercises.
  Rng rng(99);
  std::map<std::string, std::size_t> seen;
  constexpr std::size_t kDraws = 400;
  for (std::size_t i = 0; i < kDraws; ++i) {
    for (const auto& [key, value] : analysis::generate_fuzz_overrides(rng)) {
      ++seen[key];
    }
  }
  for (const char* key :
       {"topology.deployment", "topology.corridor_count",
        "topology.class_count", "topology.class_capacity_ratio",
        "topology.class_rate_ratio", "mobility.fraction", "mobility.interval",
        "coverage.k", "coverage.bonus", "fleet.size",
        "faults.mc_breakdown_mtbf", "policy.attacker", "policy.epsilon",
        "policy.ucb_c", "policy.epoch", "policy.risk_weight",
        "policy.risk_budget", "policy.defender", "policy.defender_window",
        "policy.defender_quantile", "policy.defender_min_samples"}) {
    EXPECT_GT(seen[key], 0u) << "family never generated: " << key;
  }
  // Corridor counts stay in 1-3: wider draws can disconnect the sink.
  Rng check(7);
  for (std::size_t i = 0; i < kDraws; ++i) {
    const analysis::FuzzOverrides o = analysis::generate_fuzz_overrides(check);
    const auto it = o.find("topology.corridor_count");
    if (it == o.end()) continue;
    const int count = std::stoi(it->second);
    EXPECT_GE(count, 1);
    EXPECT_LE(count, 3);
  }
}

TEST(Fuzzer, SelfTestCatchesInjectedPlannerBug) {
  const analysis::FuzzReport report = analysis::run_fuzz_campaign(
      /*trials=*/40, /*seed=*/1, /*threads=*/0, /*inject_divergence=*/true);
  ASSERT_FALSE(report.ok());
  ASSERT_FALSE(report.repro_lines.empty());

  // The printed repro line replays to the same verdict.
  const analysis::FuzzOverrides overrides =
      analysis::parse_repro(report.repro_lines.front());
  const analysis::FuzzVerdict replay =
      analysis::run_fuzz_trial(overrides, /*inject_divergence=*/true);
  EXPECT_FALSE(replay.ok());
  // ... and the same mission with the real planner is clean: the oracle
  // flagged the injected bug, not the scenario.
  const analysis::FuzzVerdict clean =
      analysis::run_fuzz_trial(overrides, /*inject_divergence=*/false);
  EXPECT_TRUE(clean.ok()) << clean.failures.front();
}

}  // namespace
}  // namespace wrsn
