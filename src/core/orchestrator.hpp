// The CSA attack orchestrator: a compromised charging service.
//
// Outwardly it behaves exactly like the benign ChargerAgent: it is the same
// mc::VehicleAgent, so it answers charging requests, drives, docks, keeps
// the depot ledger and handles breakdowns through the one vehicle protocol.
// Inwardly it runs receding-horizon TIDE planning: at every decision point
// it snapshots the pending requests plus the *predicted* upcoming requests
// of its key-node targets (the charging service can predict request times
// from drain rates and request history), plans a route with the injected
// Planner, and executes the first leg.  Key targets are "served" with the
// dual-antenna phase-cancellation payload: full radiated power, zero
// harvested energy.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "core/planners.hpp"
#include "mc/agent.hpp"
#include "policy/policy.hpp"
#include "sim/world.hpp"
#include "wpt/spoofing.hpp"

namespace wrsn::csa {

/// How the attacker "serves" its key targets.
enum class SpoofMode {
  PhaseCancel,   ///< CSA: dual-antenna destructive interference (stealthy)
  PartialCancel, ///< CSA extension: leak a calibrated fraction of the
                 ///< expected energy, defeating single-session audits
  SilentSkip,    ///< naive: dock but radiate nothing (caught by RSSI checks)
  NoService,     ///< naive: ignore key requests entirely (caught by audits)
};

struct AttackParams {
  mc::ChargerParams charger;
  net::KeyNodeConfig key_selection;
  wpt::SpoofingParams spoofing;
  SpoofMode spoof_mode = SpoofMode::PhaseCancel;

  /// PartialCancel only: fraction of the node's EXPECTED session gain that
  /// is really delivered.  Must sit above the single-session audit
  /// threshold (~0.30) to evade it; the leak slows the kill accordingly.
  double partial_leak_ratio = 0.45;

  /// Safety margin shaved off every escalation deadline when building
  /// windows, so plan execution jitter cannot trip an escalation.
  Seconds window_margin = 120.0;

  /// Predicted key-node requests within this horizon enter the plan, letting
  /// the attacker pre-position for tight windows.
  Seconds lookahead = 14'400.0;

  /// End of the attack campaign [s].  Target selection is killability-aware:
  /// a candidate key node is only selected if its predicted request time
  /// plus the post-spoof exhaustion time fits inside the campaign.
  Seconds campaign_deadline = 4 * 86'400.0;

  /// Safety factor applied to the campaign deadline during selection.
  double campaign_slack = 0.95;

  /// Kill pacing (stealth vs the death-rate monitor): a spoof is deferred —
  /// the key node is served genuinely this round — whenever its predicted
  /// death would join >= `pace_limit` other kills inside a `pace_window`
  /// interval.  pace_limit = 0 disables pacing.
  /// One below the deployed death-rate threshold (5/24 h): margin for a
  /// surprise background failure landing inside the window.
  std::size_t pace_limit = 3;
  /// Slightly wider than the defender's 24 h monitoring window: margin for
  /// kill-time prediction error (drains rise as the network degrades,
  /// pulling deaths earlier than predicted at spoof time).
  Seconds pace_window = 100'000.0;

  /// Offset between a node's rectenna and its communication antenna [m];
  /// the spoof nulls the field at the rectenna, while the comm antenna
  /// (where RSSI is measured) still sees a strong carrier.
  Meters comm_antenna_offset = 0.08;

  /// Return to the depot to recharge below this battery fraction.
  double battery_reserve_fraction = 0.10;

  /// Nodes this vehicle services; empty = the whole network.  A compromised
  /// member of a charger fleet can only spoof targets inside its own cell.
  std::vector<net::NodeId> territory;

  void validate() const;
};

/// The attack agent; bind one to a world instead of a benign ChargerAgent.
class AttackAgent final : public mc::VehicleAgent {
 public:
  /// `policy` selects the spoof-scheduling policy (DESIGN.md §15); the
  /// default Static kind reproduces the fixed pacing arithmetic bit-for-bit
  /// and consumes no randomness.  Bandit kinds draw from rng.fork("policy"),
  /// a stream no other consumer touches.
  AttackAgent(sim::World& world, const AttackParams& params,
              const Planner& planner, Rng rng,
              const policy::AttackPolicyParams& policy = {});

  /// Flushes the agent's accumulated tallies (replans, spoofed sessions) to
  /// the installed obs registry in one shot — the per-replan and
  /// per-session paths are too hot for a write each.
  ~AttackAgent() override;

  const std::vector<net::NodeId>& key_targets() const { return key_targets_; }
  std::uint64_t genuine_sessions() const { return genuine_sessions_; }
  std::uint64_t spoofed_sessions() const { return spoofed_sessions_; }
  std::uint64_t plans_computed() const { return plans_computed_; }

  /// Phase-calibration degradation: sets the spoofing emitter's phase
  /// jitter to `scale` times the configured baseline (1.0 restores it).
  /// Takes effect from the next spoofed session.
  void fault_phase_noise(double scale);

  // Territory adopted through adopt_territory() is serviced GENUINELY:
  // key-target selection happened at start() and is not widened, so the
  // compromised member plays the dutiful survivor.

 private:
  bool is_key(net::NodeId id) const {
    return key_set_.find(id) != key_set_.end();
  }

  /// Deaths (scheduled kills + observed background deaths) in the worst
  /// pace_window interval a kill at `death_at` would join, that kill
  /// included — the pacing pressure the spoof policy decides against.
  std::size_t kill_window_count(Seconds death_at) const;
  /// Consults the spoof-scheduling policy: spoofed right now vs. served
  /// genuinely for cover, and the PartialCancel leak ratio to use.
  policy::SpoofDecision spoof_decision(net::NodeId id);

  /// Reconnaissance: selects the key targets from the current routing state.
  void on_start() override;
  /// Replans and engages the next leg (the vehicle only replans when idle;
  /// a request that lands mid-leg enters the next replan).
  void plan_leg() override;
  /// Every death joins the kill-pacing window and the policy's view.
  void observe_death(net::NodeId id) override;
  /// Arrivals whose request is no longer pending are abandoned.
  bool serves_on_arrival(net::NodeId id) const override;
  /// Spoofed or genuine payload; the neighbour witness probes now.
  Session open_session(net::NodeId id, Joules deficit) override;
  void close_session(sim::SessionRecord& record) override;

  /// Builds the TIDE snapshot (pending requests + predicted key windows)
  /// into `instance`, reusing its stop storage, and retargets the
  /// instance's travel matrix at the new stops.
  void build_instance(TideInstance& instance) const;
  void on_wake(std::uint64_t version);

  AttackParams params_;
  const Planner& planner_;
  Rng rng_;
  std::optional<wpt::SpoofingEmitter> emitter_;
  std::unique_ptr<policy::AttackPolicy> policy_;

  std::vector<net::NodeId> key_targets_;
  std::unordered_set<net::NodeId> key_set_;
  /// Predicted death times of keys already spoofed plus observed deaths of
  /// other nodes (kill pacing state).
  std::vector<Seconds> kill_schedule_;
  /// Keys already spoof-killed (their deaths are pre-counted predictively).
  std::unordered_set<net::NodeId> spoof_killed_;
  /// Replan arenas: the instance snapshot (with the travel matrix it owns)
  /// and the plan are rebuilt in place every replan, so steady-state
  /// replanning (stop set previously seen) performs no heap allocation
  /// (sim_alloc_test).
  TideInstance plan_instance_;
  Plan plan_;

  // Counted at session start; the obs session tallies count completed
  // sessions (an in-flight session at the horizon would skew them).
  std::uint64_t genuine_sessions_ = 0;
  std::uint64_t spoofed_sessions_ = 0;
  std::uint64_t spoofed_sessions_ended_ = 0;
  std::uint64_t plans_computed_ = 0;
};

}  // namespace wrsn::csa
