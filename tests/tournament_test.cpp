// Tournament harness (src/analysis/tournament.*) and the static-policy
// equivalence guarantee: wrapping the PR 1-9 attacker/defender behaviors as
// trivial policies must be bit-identical to the pre-policy code.
#include <gtest/gtest.h>

#include <cstdint>

#include "analysis/fuzz.hpp"
#include "analysis/scenario.hpp"
#include "analysis/tournament.hpp"
#include "common/check.hpp"
#include "common/fnv.hpp"
#include "core/planners.hpp"
#include "core/reference_planner.hpp"

namespace wrsn {
namespace {

// ---------------------------------------------------------------------------
// Static-policy equivalence: golden result digests captured on the commit
// BEFORE the policy seam existed (same four missions, Fast and Reference
// world modes).  If any of these change, the "static policies are the old
// behavior" contract is broken.
// ---------------------------------------------------------------------------

struct GoldenMission {
  const char* repro;
  std::uint64_t fast_digest;
  std::uint64_t reference_digest;
};

constexpr GoldenMission kGolden[] = {
    // attack, phase-cancel, single charger
    {"mode=attack;seed=71;topology.node_count=36;topology.region_size=240;"
     "horizon=43200;topology.battery_capacity=2500;world.sensing_power=0.05;"
     "world.initial_level_min=0.4;world.initial_level_max=0.55;"
     "world.patience=5400;attack.key_count=6",
     7377576853416446908ull, 14750235838302946708ull},
    // benign with standing faults
    {"mode=benign;seed=72;topology.node_count=36;topology.region_size=240;"
     "horizon=43200;topology.battery_capacity=2500;world.sensing_power=0.05;"
     "world.initial_level_min=0.4;world.initial_level_max=0.55;"
     "world.patience=5400;faults.node_burst_mtbf=20000;"
     "faults.node_burst_size=2;faults.battery_drift_mtbf=30000;"
     "faults.battery_drift_power=0.01",
     7904321165263882670ull, 3897419679105382845ull},
    // attack, partial-cancel, hardened detectors
    {"mode=attack;seed=73;topology.node_count=36;topology.region_size=240;"
     "horizon=43200;topology.battery_capacity=2500;world.sensing_power=0.05;"
     "world.initial_level_min=0.4;world.initial_level_max=0.55;"
     "world.patience=5400;attack.key_count=6;"
     "attack.spoof_mode=partial-cancel;hardened_detectors=true",
     7859015883800594880ull, 3949269500359290102ull},
    // fleet mission, compromised member, charger breakdown faults
    {"mode=attack;seed=74;topology.node_count=36;topology.region_size=240;"
     "horizon=43200;topology.battery_capacity=2500;world.sensing_power=0.05;"
     "world.initial_level_min=0.4;world.initial_level_max=0.55;"
     "world.patience=5400;attack.key_count=5;fleet.size=2;"
     "fleet.compromised=0;faults.mc_breakdown_mtbf=30000;"
     "faults.mc_repair_mean=3600",
     14883216790428870155ull, 13880819960805799142ull},
};

TEST(StaticPolicyEquivalence, GoldenDigestsMatchPrePolicyCommit) {
  const csa::CsaPlanner fast_planner;
  const csa::reference::NaiveCsaPlanner ref_planner;
  for (const GoldenMission& golden : kGolden) {
    const auto [cfg, mode] =
        analysis::resolve_overrides(analysis::parse_repro(golden.repro));
    ASSERT_EQ(cfg.policy.attacker.kind, policy::AttackPolicyKind::Static);
    ASSERT_EQ(cfg.policy.defender.kind, policy::DefenderPolicyKind::Static);

    analysis::ScenarioConfig fast_cfg = cfg;
    fast_cfg.world.update_mode = sim::WorldUpdateMode::Fast;
    EXPECT_EQ(analysis::digest_result(
                  analysis::run_mission(fast_cfg, mode, &fast_planner)),
              golden.fast_digest)
        << "Fast mode diverged from pre-policy behavior: " << golden.repro;

    analysis::ScenarioConfig ref_cfg = cfg;
    ref_cfg.world.update_mode = sim::WorldUpdateMode::Reference;
    EXPECT_EQ(analysis::digest_result(
                  analysis::run_mission(ref_cfg, mode, &ref_planner)),
              golden.reference_digest)
        << "Reference mode diverged from pre-policy behavior: "
        << golden.repro;
  }
}

// ---------------------------------------------------------------------------
// Waypoint-mobility attack pin: the CI fuzz-smoke mobility family line.
// Mobility epochs move nodes between replans, so this mission pins that the
// attacker's travel times follow the moved positions.  Digests recorded
// while the attacker still memoized node-pair distances across replans
// (cleared on every mobility epoch); planning on fresh `distance / speed`
// cells must reproduce them.
// ---------------------------------------------------------------------------

TEST(MobilityAttackPin, DigestsMatchPairMemoCommit) {
  constexpr GoldenMission kMobility = {
      "mode=attack;seed=4242;topology.node_count=36;"
      "topology.region_size=240;topology.class_count=3;"
      "topology.class_capacity_ratio=2;horizon=43200;"
      "topology.battery_capacity=2500;world.sensing_power=0.05;"
      "world.initial_level_min=0.4;world.initial_level_max=0.55;"
      "world.patience=5400;mobility.fraction=0.2;mobility.interval=1800;"
      "mobility.speed_max=2;world.emergency_enabled=true",
      3440254527936789914ull, 9815486240952666811ull};
  const auto [cfg, mode] =
      analysis::resolve_overrides(analysis::parse_repro(kMobility.repro));
  ASSERT_GT(cfg.world.mobility.fraction, 0.0);

  const csa::CsaPlanner fast_planner;
  analysis::ScenarioConfig fast_cfg = cfg;
  fast_cfg.world.update_mode = sim::WorldUpdateMode::Fast;
  EXPECT_EQ(analysis::digest_result(
                analysis::run_mission(fast_cfg, mode, &fast_planner)),
            kMobility.fast_digest);

  const csa::reference::NaiveCsaPlanner ref_planner;
  analysis::ScenarioConfig ref_cfg = cfg;
  ref_cfg.world.update_mode = sim::WorldUpdateMode::Reference;
  EXPECT_EQ(analysis::digest_result(
                analysis::run_mission(ref_cfg, mode, &ref_planner)),
            kMobility.reference_digest);
}

// ---------------------------------------------------------------------------
// Agent-path pins: vehicle paths no golden above covers (the benign Tour
// wake-up under breakdowns and repairs, a fleet territory handoff after a
// permanent loss, and the silent-skip payload).  digest_result skips the
// witness-probe fields and the expected gain, which is exactly what the
// probe timing (benign at session end, attacker at session start) moves,
// so each pin also folds every SessionRecord field; node bursts kill
// neighbours mid-session, so moving either probe instant changes the pin.
// Digests recorded before the benign and attack agents shared one vehicle
// state machine.
// ---------------------------------------------------------------------------

std::uint64_t pin_digest(const analysis::ScenarioResult& result) {
  Fnv fnv;
  fnv.mix(analysis::digest_result(result));
  for (const sim::SessionRecord& s : result.trace.sessions) {
    fnv.mix(std::uint64_t{s.node});
    fnv.mix(s.start);
    fnv.mix(s.end);
    fnv.mix(std::uint64_t(s.kind));
    fnv.mix(s.expected_gain);
    fnv.mix(s.delivered);
    fnv.mix(s.rf_observed);
    fnv.mix(s.rf_neighbor_probe);
    fnv.mix(s.nearest_probe_distance);
    fnv.mix(s.radiated);
  }
  fnv.mix(result.events_executed);
  return fnv.hash();
}

constexpr const char* kPinBase =
    "seed=75;topology.node_count=36;topology.region_size=240;"
    "horizon=43200;topology.battery_capacity=2500;world.sensing_power=0.05;"
    "world.initial_level_min=0.4;world.initial_level_max=0.55;"
    "world.patience=5400;attack.key_count=6;";

constexpr GoldenMission kAgentPins[] = {
    // benign Tour policy under breakdowns, repairs and a final permanent loss
    {"mode=benign;benign.policy=tour;faults.mc_breakdown_mtbf=9000;"
     "faults.mc_repair_mean=1800;faults.mc_permanent_at=36000;"
     "faults.node_burst_mtbf=2000;faults.node_burst_size=2",
     11021518276491975701ull, 6148604243902560599ull},
    // benign fleet: a permanent loss hands member 0's cell to the survivors
    {"mode=benign;fleet.size=3;faults.mc_permanent_at=10000;"
     "faults.node_burst_mtbf=4000;faults.node_burst_size=2",
     10398954296837889690ull, 907525730547022814ull},
    // attack with the naive silent-skip payload
    {"mode=attack;attack.spoof_mode=silent-skip;"
     "faults.node_burst_mtbf=2000;faults.node_burst_size=2",
     11762139453675895206ull, 14687616394070616080ull},
};

TEST(AgentPathPin, DigestsMatchPreSharedVehicleCommit) {
  const csa::CsaPlanner fast_planner;
  const csa::reference::NaiveCsaPlanner ref_planner;
  for (const GoldenMission& pin : kAgentPins) {
    const std::string repro = std::string(kPinBase) + pin.repro;
    const auto [cfg, mode] =
        analysis::resolve_overrides(analysis::parse_repro(repro));

    analysis::ScenarioConfig fast_cfg = cfg;
    fast_cfg.world.update_mode = sim::WorldUpdateMode::Fast;
    const analysis::ScenarioResult fast =
        analysis::run_mission(fast_cfg, mode, &fast_planner);
    EXPECT_FALSE(fast.trace.sessions.empty()) << repro;
    EXPECT_EQ(pin_digest(fast), pin.fast_digest) << "Fast: " << repro;

    analysis::ScenarioConfig ref_cfg = cfg;
    ref_cfg.world.update_mode = sim::WorldUpdateMode::Reference;
    EXPECT_EQ(pin_digest(analysis::run_mission(ref_cfg, mode, &ref_planner)),
              pin.reference_digest)
        << "Reference: " << repro;
  }
}

// ---------------------------------------------------------------------------
// Tournament grid
// ---------------------------------------------------------------------------

analysis::TournamentConfig small_tournament() {
  // Activity-dense base (fuzzer-style knobs) so a 12h horizon produces
  // kills, detections, and benign deaths at tiny trial counts.
  analysis::ScenarioConfig base = analysis::default_scenario();
  base.topology.node_count = 36;
  base.topology.region = {{0.0, 0.0}, {240.0, 240.0}};
  base.topology.battery_capacity = 2'500.0;
  base.horizon = 43'200.0;
  base.world.drain.sensing_power = 0.05;
  base.world.initial_level_min = 0.4;
  base.world.initial_level_max = 0.55;
  base.world.patience = 5'400.0;
  base.attack.key_selection.max_count = 6;
  base.policy.attacker.epoch = 7'200.0;
  base.policy.defender.window = 7'200.0;

  analysis::TournamentConfig config = analysis::default_tournament(base);
  config.attack_trials = 2;
  config.benign_trials = 2;
  config.seed = 5;
  return config;
}

TEST(Tournament, DigestIsBitIdenticalAcrossThreadCounts) {
  analysis::TournamentConfig config = small_tournament();
  analysis::TournamentReport reports[3];
  const std::size_t thread_counts[] = {1, 2, 8};
  for (std::size_t i = 0; i < 3; ++i) {
    config.threads = thread_counts[i];
    reports[i] = analysis::TournamentRunner(config).run();
  }
  EXPECT_NE(reports[0].digest, 0u);
  EXPECT_EQ(reports[0].digest, reports[1].digest);
  EXPECT_EQ(reports[0].digest, reports[2].digest);
  ASSERT_EQ(reports[0].cells.size(), reports[2].cells.size());
  for (std::size_t c = 0; c < reports[0].cells.size(); ++c) {
    EXPECT_EQ(reports[0].cells[c].digest, reports[1].cells[c].digest);
    EXPECT_EQ(reports[0].cells[c].digest, reports[2].cells[c].digest);
    EXPECT_EQ(reports[0].cells[c].damage, reports[2].cells[c].damage);
    EXPECT_EQ(reports[0].cells[c].fp_rate, reports[2].cells[c].fp_rate);
  }
}

TEST(Tournament, GridShapeAndMetricRanges) {
  const analysis::TournamentConfig config = small_tournament();
  const analysis::TournamentReport report =
      analysis::TournamentRunner(config).run();

  const std::size_t cells = config.attackers.size() * config.defenders.size();
  ASSERT_EQ(report.cells.size(), cells);
  EXPECT_EQ(report.trials, cells * config.attack_trials +
                               config.defenders.size() * config.benign_trials);
  for (const analysis::TournamentCell& cell : report.cells) {
    EXPECT_EQ(cell.attack_trials, config.attack_trials);
    EXPECT_GE(cell.damage, 0.0);
    EXPECT_LE(cell.damage, 1.0);
    EXPECT_GE(cell.undetected_damage, 0.0);
    EXPECT_LE(cell.undetected_damage, cell.damage + 1e-12);
    EXPECT_GE(cell.detection_rate, 0.0);
    EXPECT_LE(cell.detection_rate, 1.0);
    EXPECT_GE(cell.fp_rate, 0.0);
    EXPECT_LE(cell.fp_rate, 1.0);
    EXPECT_GE(cell.mean_time_to_detection, 0.0);
    EXPECT_LE(cell.mean_time_to_detection, config.base.horizon);
    EXPECT_FALSE(cell.attacker.empty());
    EXPECT_FALSE(cell.defender.empty());
  }
  // FP rate is a property of the defender column: every attacker row must
  // report the same value for a given defender.
  const std::size_t defenders = config.defenders.size();
  for (std::size_t d = 0; d < defenders; ++d) {
    for (std::size_t a = 1; a < config.attackers.size(); ++a) {
      EXPECT_EQ(report.cells[a * defenders + d].fp_rate,
                report.cells[d].fp_rate);
    }
  }
}

TEST(Tournament, DefaultGridIsThreeByThree) {
  const analysis::TournamentConfig config =
      analysis::default_tournament(analysis::default_scenario());
  ASSERT_EQ(config.attackers.size(), 3u);
  ASSERT_EQ(config.defenders.size(), 3u);
  EXPECT_EQ(config.attackers[0].label, "static");
  EXPECT_EQ(config.attackers[1].label, "eps-greedy");
  EXPECT_EQ(config.attackers[2].label, "ucb");
  EXPECT_EQ(config.defenders[0].label, "static");
  EXPECT_EQ(config.defenders[1].label, "adaptive");
  EXPECT_EQ(config.defenders[2].label, "adaptive-tight");
  EXPECT_EQ(config.attackers[0].params.kind, policy::AttackPolicyKind::Static);
  EXPECT_EQ(config.defenders[2].params.quantile, 2.0);
}

TEST(Tournament, RejectsEmptyGrids) {
  analysis::TournamentConfig config = small_tournament();
  config.attackers.clear();
  EXPECT_THROW(analysis::TournamentRunner{config}, PreconditionError);
  config = small_tournament();
  config.defenders.clear();
  EXPECT_THROW(analysis::TournamentRunner{config}, PreconditionError);
  config = small_tournament();
  config.attack_trials = 0;
  EXPECT_THROW(analysis::TournamentRunner{config}, PreconditionError);
}

TEST(Tournament, JsonDocumentCarriesTheGrid) {
  const analysis::TournamentConfig config = small_tournament();
  const analysis::TournamentReport report =
      analysis::TournamentRunner(config).run();
  const std::string json = analysis::tournament_json(config, report);
  EXPECT_NE(json.find("\"schema\": \"wrsn-tournament-v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"digest\": \"" + std::to_string(report.digest) +
                      "\""),
            std::string::npos);
  EXPECT_NE(json.find("\"attacker\": \"eps-greedy\""), std::string::npos);
  EXPECT_NE(json.find("\"defender\": \"adaptive-tight\""), std::string::npos);
}

}  // namespace
}  // namespace wrsn
