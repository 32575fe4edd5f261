// Scenario configuration files: a minimal INI-style loader so experiments
// can be described declaratively and run from the CLI without recompiling.
//
// Format: `key = value` lines, `#` comments, optional `[section]` headers
// (sections are cosmetic; keys are globally unique, dotted):
//
//   # my_experiment.ini
//   topology.node_count = 200
//   topology.comm_range = 46
//   world.patience      = 7200
//   attack.pace_limit   = 2
//   horizon             = 432000
//   seed                = 7
//
// The key reference is `for_each_field` below: every non-null second
// argument is a key.  Four keys carry extra code in apply_config:
// `topology.region_size` sets the square region [0,s]^2 and `seed` sets the
// seed (neither is a listed field; the seed is not digested), `horizon` also
// sets attack.campaign_deadline, and `fleet.size` must be >= 1.  Unknown
// keys throw (catching typos beats silently ignoring them).
#pragma once

#include <istream>
#include <map>
#include <string>

#include "analysis/scenario.hpp"

namespace wrsn::analysis {

/// Parses INI text into a flat key->value map.  Throws ConfigError on
/// malformed lines.
std::map<std::string, std::string> parse_ini(std::istream& in);

/// Applies `entries` on top of `base` (unset keys keep base values).
/// Throws ConfigError on unknown keys or unparsable values.
ScenarioConfig apply_config(const ScenarioConfig& base,
                            const std::map<std::string, std::string>& entries);

/// Convenience: parse + apply over default_scenario().
ScenarioConfig load_config(std::istream& in);

/// Loads a config file from disk; throws ConfigError if unreadable.
ScenarioConfig load_config_file(const std::string& path);

/// The one list of scenario fields.  Calls `visit(path, ini_key, field)` for
/// every leaf of `c` that determines a mission's result (the seed excepted),
/// in the order svc::scenario_digest mixes them — reordering a line changes
/// every scenario digest.  `path` is the field's unique dotted name;
/// `ini_key` is the INI / repro key that sets it, or nullptr for fields only
/// the digest sees.  Field types: double, std::size_t, bool, an enum, or a
/// territory (std::vector<net::NodeId>).  Adding a scenario field is one line
/// here; apply_config parses it by type and the digest mixes it by type.
template <typename Config, typename Visit>
void for_each_field(Config& c, Visit&& visit) {
  auto& t = c.topology;
  visit("topology.region.lo.x", nullptr, t.region.lo.x);
  visit("topology.region.lo.y", nullptr, t.region.lo.y);
  visit("topology.region.hi.x", nullptr, t.region.hi.x);
  visit("topology.region.hi.y", nullptr, t.region.hi.y);
  visit("topology.node_count", "topology.node_count", t.node_count);
  visit("topology.comm_range", "topology.comm_range", t.comm_range);
  visit("topology.deployment", "topology.deployment", t.deployment);
  visit("topology.sink_at_center", nullptr, t.sink_at_center);
  visit("topology.sink_position.x", nullptr, t.sink_position.x);
  visit("topology.sink_position.y", nullptr, t.sink_position.y);
  visit("topology.mean_data_rate_bps", "topology.mean_data_rate_bps",
        t.mean_data_rate_bps);
  visit("topology.battery_capacity", "topology.battery_capacity",
        t.battery_capacity);
  visit("topology.min_separation", "topology.min_separation",
        t.min_separation);
  visit("topology.cluster_count", nullptr, t.cluster_count);
  visit("topology.cluster_sigma_fraction", nullptr, t.cluster_sigma_fraction);
  visit("topology.cluster_background_fraction", nullptr,
        t.cluster_background_fraction);
  visit("topology.corridor_count", "topology.corridor_count",
        t.corridor_count);
  visit("topology.class_count", "topology.class_count", t.class_count);
  visit("topology.class_capacity_ratio", "topology.class_capacity_ratio",
        t.class_capacity_ratio);
  visit("topology.class_rate_ratio", "topology.class_rate_ratio",
        t.class_rate_ratio);
  visit("topology.max_attempts", nullptr, t.max_attempts);

  auto& w = c.world;
  visit("world.request_threshold", "world.request_threshold",
        w.request_threshold);
  visit("world.min_request_gap", "world.min_request_gap", w.min_request_gap);
  visit("world.patience", "world.patience", w.patience);
  visit("world.charge_target_fraction", nullptr, w.charge_target_fraction);
  visit("world.benign_gain_mean", nullptr, w.benign_gain_mean);
  visit("world.benign_gain_cv", nullptr, w.benign_gain_cv);
  visit("world.initial_level_min", "world.initial_level_min",
        w.initial_level_min);
  visit("world.initial_level_max", "world.initial_level_max",
        w.initial_level_max);
  visit("world.emergency_enabled", "world.emergency_enabled",
        w.emergency_enabled);
  visit("world.emergency_fraction", nullptr, w.emergency_fraction);
  visit("world.emergency_patience", nullptr, w.emergency_patience);
  visit("world.hardware_mtbf", "world.hardware_mtbf", w.hardware_mtbf);
  visit("world.update_mode", nullptr, w.update_mode);
  visit("world.charging.source_power", "world.source_power",
        w.charging.source_power);
  visit("world.charging.gain_product", nullptr, w.charging.gain_product);
  visit("world.charging.beta", nullptr, w.charging.beta);
  visit("world.charging.max_range", nullptr, w.charging.max_range);
  visit("world.charging.dock_distance", nullptr, w.charging.dock_distance);
  visit("world.charging.wavelength", nullptr, w.charging.wavelength);
  visit("world.rectifier.sensitivity", nullptr,
        w.charging.rectifier.sensitivity);
  visit("world.rectifier.max_efficiency", nullptr,
        w.charging.rectifier.max_efficiency);
  visit("world.rectifier.knee", nullptr, w.charging.rectifier.knee);
  visit("world.rectifier.dc_cap", nullptr, w.charging.rectifier.dc_cap);
  visit("world.routing.hop_cost", nullptr, w.routing.hop_cost);
  visit("world.drain.sensing_power", "world.sensing_power",
        w.drain.sensing_power);
  visit("world.drain.radio.e_elec", nullptr, w.drain.radio.e_elec);
  visit("world.drain.radio.e_amp", nullptr, w.drain.radio.e_amp);
  visit("world.mobility.fraction", "mobility.fraction", w.mobility.fraction);
  visit("world.mobility.interval", "mobility.interval", w.mobility.interval);
  visit("world.mobility.speed_min", "mobility.speed_min",
        w.mobility.speed_min);
  visit("world.mobility.speed_max", "mobility.speed_max",
        w.mobility.speed_max);
  visit("world.mobility.pause_min", "mobility.pause_min",
        w.mobility.pause_min);
  visit("world.mobility.pause_max", "mobility.pause_max",
        w.mobility.pause_max);
  visit("world.coverage.k", "coverage.k", w.coverage.k);
  visit("world.coverage.radius", "coverage.radius", w.coverage.radius);
  visit("world.coverage.bonus", "coverage.bonus", w.coverage.bonus);

  auto& a = c.attack;
  visit("attack.charger.depot.x", nullptr, a.charger.depot.x);
  visit("attack.charger.depot.y", nullptr, a.charger.depot.y);
  visit("attack.charger.speed", nullptr, a.charger.speed);
  visit("attack.charger.battery_capacity", nullptr, a.charger.battery_capacity);
  visit("attack.charger.travel_cost_per_meter", nullptr,
        a.charger.travel_cost_per_meter);
  visit("attack.charger.pa_efficiency", nullptr, a.charger.pa_efficiency);
  visit("attack.charger.depot_recharge_power", nullptr,
        a.charger.depot_recharge_power);
  visit("attack.key_rule", "attack.key_rule", a.key_selection.rule);
  visit("attack.key_count", "attack.key_count", a.key_selection.max_count);
  visit("attack.key_min_disconnect", nullptr, a.key_selection.min_disconnect);
  visit("attack.spoofing.antenna_separation", nullptr,
        a.spoofing.antenna_separation);
  visit("attack.spoofing.phase_jitter_sigma", nullptr,
        a.spoofing.phase_jitter_sigma);
  visit("attack.spoofing.amplitude_imbalance", nullptr,
        a.spoofing.amplitude_imbalance);
  visit("attack.spoof_mode", "attack.spoof_mode", a.spoof_mode);
  visit("attack.partial_leak_ratio", "attack.partial_leak_ratio",
        a.partial_leak_ratio);
  visit("attack.window_margin", nullptr, a.window_margin);
  visit("attack.lookahead", "attack.lookahead", a.lookahead);
  visit("attack.campaign_deadline", nullptr, a.campaign_deadline);
  visit("attack.campaign_slack", nullptr, a.campaign_slack);
  visit("attack.pace_limit", "attack.pace_limit", a.pace_limit);
  visit("attack.pace_window", "attack.pace_window", a.pace_window);
  visit("attack.comm_antenna_offset", nullptr, a.comm_antenna_offset);
  visit("attack.battery_reserve_fraction", nullptr,
        a.battery_reserve_fraction);
  visit("attack.territory", nullptr, a.territory);

  auto& b = c.benign;
  visit("benign.charger.depot.x", nullptr, b.charger.depot.x);
  visit("benign.charger.depot.y", nullptr, b.charger.depot.y);
  visit("benign.charger.speed", "benign.speed", b.charger.speed);
  visit("benign.charger.battery_capacity", nullptr, b.charger.battery_capacity);
  visit("benign.charger.travel_cost_per_meter", nullptr,
        b.charger.travel_cost_per_meter);
  visit("benign.charger.pa_efficiency", nullptr, b.charger.pa_efficiency);
  visit("benign.charger.depot_recharge_power", nullptr,
        b.charger.depot_recharge_power);
  visit("benign.policy", "benign.policy", b.policy);
  visit("benign.preempt_travel", nullptr, b.preempt_travel);
  visit("benign.battery_reserve_fraction", nullptr,
        b.battery_reserve_fraction);
  visit("benign.territory", nullptr, b.territory);
  visit("benign.tour_batch", nullptr, b.tour_batch);
  visit("benign.tour_max_wait", nullptr, b.tour_max_wait);

  visit("horizon", "horizon", c.horizon);
  visit("hardened_detectors", "hardened_detectors", c.hardened_detectors);

  auto& f = c.faults;
  visit("faults.mc_breakdown_mtbf", "faults.mc_breakdown_mtbf",
        f.mc_breakdown_mtbf);
  visit("faults.mc_repair_mean", "faults.mc_repair_mean", f.mc_repair_mean);
  visit("faults.mc_budget_loss", "faults.mc_budget_loss", f.mc_budget_loss);
  visit("faults.mc_permanent_at", "faults.mc_permanent_at",
        f.mc_permanent_at);
  visit("faults.node_burst_mtbf", "faults.node_burst_mtbf",
        f.node_burst_mtbf);
  visit("faults.node_burst_size", "faults.node_burst_size",
        f.node_burst_size);
  visit("faults.phase_noise_mtbf", "faults.phase_noise_mtbf",
        f.phase_noise_mtbf);
  visit("faults.phase_noise_duration", "faults.phase_noise_duration",
        f.phase_noise_duration);
  visit("faults.phase_noise_scale", "faults.phase_noise_scale",
        f.phase_noise_scale);
  visit("faults.escalation_drop_prob", "faults.escalation_drop_prob",
        f.escalation_drop_prob);
  visit("faults.escalation_delay_prob", "faults.escalation_delay_prob",
        f.escalation_delay_prob);
  visit("faults.escalation_delay_max", "faults.escalation_delay_max",
        f.escalation_delay_max);
  visit("faults.battery_drift_mtbf", "faults.battery_drift_mtbf",
        f.battery_drift_mtbf);
  visit("faults.battery_drift_power", "faults.battery_drift_power",
        f.battery_drift_power);
  visit("faults.battery_drift_duration", "faults.battery_drift_duration",
        f.battery_drift_duration);

  visit("fleet_size", "fleet.size", c.fleet_size);
  visit("fleet_compromised", "fleet.compromised", c.fleet_compromised);

  auto& p = c.policy;
  visit("policy.attacker.kind", "policy.attacker", p.attacker.kind);
  visit("policy.attacker.epsilon", "policy.epsilon", p.attacker.epsilon);
  visit("policy.attacker.ucb_c", "policy.ucb_c", p.attacker.ucb_c);
  visit("policy.attacker.epoch", "policy.epoch", p.attacker.epoch);
  visit("policy.attacker.risk_weight", "policy.risk_weight",
        p.attacker.risk_weight);
  visit("policy.attacker.risk_budget", "policy.risk_budget",
        p.attacker.risk_budget);
  visit("policy.defender.kind", "policy.defender", p.defender.kind);
  visit("policy.defender.window", "policy.defender_window",
        p.defender.window);
  visit("policy.defender.quantile", "policy.defender_quantile",
        p.defender.quantile);
  visit("policy.defender.min_samples", "policy.defender_min_samples",
        p.defender.min_samples);
}

}  // namespace wrsn::analysis
