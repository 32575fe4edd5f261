#include "analysis/scenario.hpp"

#include <algorithm>
#include <functional>
#include <utility>

#include "common/check.hpp"
#include "detect/adaptive.hpp"
#include "fault/injector.hpp"
#include "mc/fleet.hpp"
#include "obs/metrics.hpp"

namespace wrsn::analysis {
namespace {

/// Builds the fault injector for one mission (null when faults are off):
/// compiles the schedule from its own fork of the scenario rng and wires
/// the MC-level hooks to `vehicle`, the (possibly compromised) vehicle that
/// MC faults hit.  `attacker` (null on benign runs) also takes the
/// phase-noise fault; `on_permanent_loss` (fleet runs only) is fired once
/// after a permanent breakdown so survivors can adopt the victim's
/// territory.
std::unique_ptr<fault::FaultInjector> arm_faults(
    const ScenarioConfig& config, sim::World& world, const Rng& rng,
    mc::VehicleAgent* vehicle, csa::AttackAgent* attacker,
    std::function<void()> on_permanent_loss = nullptr) {
  if (!config.faults.any()) return nullptr;
  fault::FaultPlan plan =
      fault::FaultPlan::compile(config.faults, config.horizon,
                                world.network().size(), rng.fork("faults"));
  fault::FaultHooks hooks;
  hooks.mc_permanent_loss = std::move(on_permanent_loss);
  hooks.mc_breakdown = [vehicle](double loss, bool permanent) {
    vehicle->fault_breakdown(loss, permanent);
  };
  hooks.mc_repair = [vehicle] { vehicle->fault_repair(); };
  // Phase noise degrades the spoofing payload; a benign fleet absorbs it.
  if (attacker != nullptr) {
    hooks.phase_noise = [attacker](double scale) {
      attacker->fault_phase_noise(scale);
    };
  }
  auto injector = std::make_unique<fault::FaultInjector>(
      world, std::move(plan), std::move(hooks), rng.fork("fault-exec"));
  injector->arm();
  return injector;
}

void finish_result(ScenarioResult& result, sim::World& world,
                   const sim::Simulator& simulator,
                   const fault::FaultInjector* injector) {
  result.alive_at_end = world.alive_count();
  result.sink_connected_at_end = world.sink_connected_count();
  result.events_executed = simulator.executed();
  if (injector != nullptr) result.fault_stats = injector->stats();
  double min_frac = 1.0, max_frac = 0.0;
  bool any_alive = false;
  for (net::NodeId id = 0; id < world.network().size(); ++id) {
    if (!world.alive(id)) continue;
    any_alive = true;
    const double frac = world.level_fraction(id);
    min_frac = std::min(min_frac, frac);
    max_frac = std::max(max_frac, frac);
  }
  result.min_final_level_fraction = any_alive ? min_frac : 0.0;
  result.max_final_level_fraction = any_alive ? max_frac : 0.0;
}

}  // namespace

ScenarioConfig default_scenario() {
  ScenarioConfig cfg;

  // Deployment: 100 nodes on 400 m x 400 m with 65 m radios is connected
  // with ~8 expected neighbours; the sink sits at the field center.
  cfg.topology.region = {{0.0, 0.0}, {400.0, 400.0}};
  cfg.topology.node_count = 100;
  cfg.topology.comm_range = 65.0;
  cfg.topology.mean_data_rate_bps = 12'000.0;
  cfg.topology.battery_capacity = 10'800.0;
  cfg.topology.min_separation = 2.0;

  // World protocol: request at 30 % believed charge, 3 h patience
  // (nodes still hold 12+ h of margin at request time, and honest queueing
  // bursts of ~6 requests fit without escalating), steady-state initial
  // charge spread.
  cfg.world.request_threshold = 0.30;
  cfg.world.patience = 10'800.0;
  cfg.world.min_request_gap = 300.0;
  cfg.world.charge_target_fraction = 0.95;
  cfg.world.initial_level_min = 0.50;
  cfg.world.initial_level_max = 1.00;

  // Charging chain: 8 W source with the literature's (d + 0.2316)^-2 decay
  // yields ~5 W docked DC after the nonlinear rectifier, so a full service
  // takes ~23 minutes — demand is ~45 % of one charger's capacity.
  cfg.world.charging.source_power = 10.0;
  cfg.world.charging.gain_product = 0.35;
  cfg.world.charging.dock_distance = 0.3;
  cfg.world.charging.max_range = 8.0;
  cfg.world.charging.rectifier.sensitivity = 1e-3;
  cfg.world.charging.rectifier.max_efficiency = 0.65;
  cfg.world.charging.rectifier.knee = 30e-3;
  cfg.world.charging.rectifier.dc_cap = 6.0;

  // Node drain: 10 mW sensing floor plus first-order radio traffic; leaves
  // run ~20 mW, routing hotspots 3-5x that.
  cfg.world.drain.sensing_power = 10e-3;

  // Background component failures: ~1-2 nodes per 5-day mission across the
  // fleet — the noise floor any death-rate monitor must be calibrated to.
  cfg.world.hardware_mtbf = 3.0e7;

  // Vehicle: 3 m/s, 5 MJ onboard, 40 J/m locomotion.
  mc::ChargerParams charger;
  charger.depot = {0.0, 0.0};
  charger.speed = 3.0;
  charger.battery_capacity = 5e6;
  charger.travel_cost_per_meter = 40.0;
  charger.pa_efficiency = 0.85;
  charger.depot_recharge_power = 500.0;

  cfg.benign.charger = charger;
  cfg.benign.policy = mc::SchedulePolicy::Njnp;
  cfg.benign.battery_reserve_fraction = 0.10;

  cfg.attack.charger = charger;
  cfg.attack.key_selection.rule = net::KeyNodeRule::Hybrid;
  cfg.attack.key_selection.max_count = 10;
  cfg.attack.key_selection.min_disconnect = 1;
  cfg.attack.battery_reserve_fraction = 0.10;

  cfg.horizon = 5 * 86'400.0;
  cfg.attack.campaign_deadline = cfg.horizon;
  cfg.seed = 1;
  return cfg;
}

DetectorSetup make_detector_setup(const ScenarioConfig& config,
                                  const sim::World& world) {
  // The defender calibrates its death-rate bound to the fleet's known
  // background failure rate.
  const std::size_t node_count = world.network().size();
  const double expected_deaths_per_window =
      config.world.hardware_mtbf > 0.0
          ? double(node_count) * 86'400.0 / config.world.hardware_mtbf
          : 0.0;
  DetectorSetup setup{
      .calibration = detect::SuiteCalibration::for_deployment(
          node_count, expected_deaths_per_window),
      .suite = {},
      .context = {},
  };
  // The defender policy selects the suite: Static deploys the fixed PR-4
  // calibration; Adaptive swaps in the per-window threshold re-tuners
  // (detect/adaptive.hpp), same lineup and size either way.
  setup.suite =
      config.policy.defender.kind == policy::DefenderPolicyKind::Adaptive
          ? detect::make_adaptive_suite(setup.calibration,
                                        config.policy.defender,
                                        config.hardened_detectors)
          : (config.hardened_detectors
                 ? detect::make_hardened_suite(setup.calibration)
                 : detect::make_deployed_suite(setup.calibration));
  setup.context.network = &world.network();
  setup.context.charging_model = &world.charging_model();
  setup.context.nominal_dc = world.nominal_dc_power();
  setup.context.benign_gain_mean = config.world.benign_gain_mean;
  setup.context.benign_gain_cv = config.world.benign_gain_cv;
  setup.context.noise_seed = config.seed ^ 0x9e3779b97f4a7c15ULL;
  setup.context.horizon = config.horizon;
  setup.context.expected_deaths_per_window = expected_deaths_per_window;
  return setup;
}

ScenarioResult run_scenario(const ScenarioConfig& config, ChargerMode mode,
                            const csa::Planner* planner) {
  Rng rng(config.seed);
  Rng topo_rng = rng.fork("topology");
  net::Network network = net::generate_topology(config.topology, topo_rng);

  sim::Simulator simulator;
  sim::World world(simulator, std::move(network), config.world,
                   rng.fork("world"));

  ScenarioResult result;
  result.node_count = world.network().size();

  std::unique_ptr<mc::VehicleAgent> agent;
  csa::AttackAgent* attacker = nullptr;
  const csa::CsaPlanner default_planner;

  if (mode == ChargerMode::Benign) {
    // Keys are still identified (same rule as the attacker would use) so
    // benign runs report comparable key-node survival numbers.
    result.keys = net::select_key_nodes(world.network(), world.loads(),
                                        config.attack.key_selection);
    agent = std::make_unique<mc::ChargerAgent>(world, config.benign);
    agent->start();
  } else {
    auto owned = std::make_unique<csa::AttackAgent>(
        world, config.attack, planner != nullptr ? *planner : default_planner,
        rng.fork("attack"), config.policy.attacker);
    attacker = owned.get();
    agent = std::move(owned);
    agent->start();
    result.keys = attacker->key_targets();
  }

  const std::unique_ptr<fault::FaultInjector> injector =
      arm_faults(config, world, rng, agent.get(), attacker);

  simulator.run_until(config.horizon);

  const DetectorSetup detectors = make_detector_setup(config, world);
  result.detections = detectors.suite.run(world.trace(), detectors.context);
  result.report = csa::build_report(world.network(), world.trace(),
                                    result.keys, result.detections);
  finish_result(result, world, simulator, injector.get());
  result.ledger = agent->charger().ledger();
  if (attacker != nullptr) result.plans_computed = attacker->plans_computed();
  result.fleet_ledger = result.ledger;
  result.trace = std::move(world.trace());
  return result;
}

ScenarioResult run_fleet_scenario(const ScenarioConfig& config,
                                  std::size_t fleet_size,
                                  std::size_t compromised,
                                  const csa::Planner* planner) {
  WRSN_REQUIRE(fleet_size > 0, "fleet must have at least one charger");
  Rng rng(config.seed);
  Rng topo_rng = rng.fork("topology");
  net::Network network = net::generate_topology(config.topology, topo_rng);

  const std::vector<geom::Vec2> depots =
      mc::default_depots(config.topology.region, fleet_size);
  const std::vector<std::vector<net::NodeId>> cells =
      mc::partition_by_depot(network, depots);

  sim::Simulator simulator;
  sim::World world(simulator, std::move(network), config.world,
                   rng.fork("world"));

  ScenarioResult result;
  result.node_count = world.network().size();

  /// The fleet by index; `attacker` aliases the compromised member.
  std::vector<std::unique_ptr<mc::VehicleAgent>> agents;
  agents.reserve(fleet_size);
  csa::AttackAgent* attacker = nullptr;
  const csa::CsaPlanner default_planner;

  for (std::size_t k = 0; k < fleet_size; ++k) {
    if (k == compromised) {
      csa::AttackParams params = config.attack;
      params.charger.depot = depots[k];
      params.territory = cells[k];
      auto owned = std::make_unique<csa::AttackAgent>(
          world, params, planner != nullptr ? *planner : default_planner,
          rng.fork("attack-" + std::to_string(k)), config.policy.attacker);
      attacker = owned.get();
      agents.push_back(std::move(owned));
    } else {
      mc::AgentParams params = config.benign;
      params.charger.depot = depots[k];
      params.territory = cells[k];
      agents.push_back(std::make_unique<mc::ChargerAgent>(world, params));
    }
    agents.back()->start();
  }

  if (attacker != nullptr) {
    result.keys = attacker->key_targets();
  } else {
    result.keys = net::select_key_nodes(world.network(), world.loads(),
                                        config.attack.key_selection);
  }

  // MC faults hit the compromised vehicle when present, else fleet member 0;
  // the result's single-vehicle ledger is that vehicle's too.
  const std::size_t victim = compromised < fleet_size ? compromised : 0;

  // Charger handoff: on a PERMANENT loss the victim's whole Voronoi cell —
  // deliberately not filtered by the alive mask, so the adopted set never
  // depends on sub-tolerance death-timing differences between world update
  // modes; dead nodes are inert in a territory set — is redistributed to
  // the survivors with the nearest depots (squared distance, ties to the
  // lower fleet index, exactly mc::nearest_depot's rule) and each survivor
  // replans.
  std::function<void()> on_permanent_loss;
  if (fleet_size > 1) {
    std::vector<geom::Vec2> survivor_depots;
    std::vector<mc::VehicleAgent*> survivors;
    for (std::size_t k = 0; k < fleet_size; ++k) {
      if (k == victim) continue;
      survivor_depots.push_back(depots[k]);
      survivors.push_back(agents[k].get());
    }
    on_permanent_loss = [&world, survivor_depots = std::move(survivor_depots),
                         survivors = std::move(survivors),
                         lost_cell = cells[victim]] {
      std::vector<std::vector<net::NodeId>> adopted(survivors.size());
      for (const net::NodeId id : lost_cell) {
        adopted[mc::nearest_depot(world.network().node(id).position,
                                  survivor_depots)]
            .push_back(id);
      }
      for (std::size_t s = 0; s < survivors.size(); ++s) {
        if (!adopted[s].empty()) survivors[s]->adopt_territory(adopted[s]);
      }
      WRSN_OBS_COUNT(kFleetHandoffs);
      WRSN_OBS_ADD(kFleetHandoffNodes, double(lost_cell.size()));
    };
  }

  const std::unique_ptr<fault::FaultInjector> injector =
      arm_faults(config, world, rng, agents[victim].get(), attacker,
                 std::move(on_permanent_loss));

  simulator.run_until(config.horizon);

  const DetectorSetup detectors = make_detector_setup(config, world);
  result.detections = detectors.suite.run(world.trace(), detectors.context);
  result.report = csa::build_report(world.network(), world.trace(),
                                    result.keys, result.detections);
  finish_result(result, world, simulator, injector.get());
  result.ledger = agents[victim]->charger().ledger();
  if (attacker != nullptr) result.plans_computed = attacker->plans_computed();
  // Benign members first, then the attacker: the fold order fixes the sums.
  const auto fold_ledger = [&result](const mc::EnergyLedger& l) {
    result.fleet_ledger.travel += l.travel;
    result.fleet_ledger.radiated_genuine += l.radiated_genuine;
    result.fleet_ledger.radiated_spoofed += l.radiated_spoofed;
    result.fleet_ledger.drawn_for_radiation += l.drawn_for_radiation;
  };
  for (const auto& agent : agents) {
    if (agent.get() != attacker) fold_ledger(agent->charger().ledger());
  }
  if (attacker != nullptr) fold_ledger(attacker->charger().ledger());
  result.trace = std::move(world.trace());
  return result;
}

ScenarioResult run_mission(const ScenarioConfig& config, ChargerMode mode,
                           const csa::Planner* planner) {
  const std::size_t fleet = config.fleet_size;
  if (fleet <= 1) return run_scenario(config, mode, planner);
  const std::size_t compromised =
      mode == ChargerMode::Attack
          ? std::min(config.fleet_compromised, fleet - 1)
          : SIZE_MAX;
  return run_fleet_scenario(config, fleet, compromised, planner);
}

}  // namespace wrsn::analysis
