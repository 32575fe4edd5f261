// The charging vehicle and the benign charging service.
//
// VehicleAgent is the vehicle protocol every charger runs, honest or not:
// drive to a requesting node, dock, radiate for a metered session, return
// to the depot when the battery runs low, halt on a breakdown and resume on
// repair.  The paper's threat model rests on this being one protocol: the
// compromised charger (csa::AttackAgent) moves, parks and radiates exactly
// like the benign ChargerAgent, and only its plan and its payload differ.
// Both derive from VehicleAgent and supply those differences through small
// virtual hooks (DESIGN.md §2).
//
// ChargerAgent is the honest service under a pluggable scheduling policy:
// the baseline the attack is compared against (network lifetime with an
// honest charger) and the behavioural envelope the attacker must imitate.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_set>
#include <utility>
#include <vector>

#include "mc/charger.hpp"
#include "sim/world.hpp"

namespace wrsn::mc {

/// Request-service ordering policy.
enum class SchedulePolicy {
  Njnp,  ///< nearest-job-next (with optional travel preemption)
  Edf,   ///< earliest escalation deadline first
  Fcfs,  ///< first-come first-served
  Tour,  ///< periodic TSP tour: batch requests, serve along a 2-opt tour
};

struct AgentParams {
  ChargerParams charger;
  SchedulePolicy policy = SchedulePolicy::Njnp;
  /// NJNP travel preemption: retarget mid-travel when a closer request lands.
  bool preempt_travel = true;
  /// Return to the depot to recharge below this battery fraction.
  double battery_reserve_fraction = 0.15;
  /// Nodes this vehicle is responsible for; empty = the whole network.
  /// Multi-charger fleets partition the field (see mc/fleet.hpp).
  std::vector<net::NodeId> territory;

  /// Tour policy: start a tour once this many requests are pending...
  std::size_t tour_batch = 4;
  /// ...or when the oldest pending request reaches this age [s].
  Seconds tour_max_wait = 1'800.0;

  void validate() const;
};

/// One charging vehicle bound to a world: travel, docking, metered
/// sessions, depot recharge, breakdown and repair, territory handoff.
/// Derived agents choose where to go next and what a session radiates.
class VehicleAgent {
 public:
  VehicleAgent(const VehicleAgent&) = delete;
  VehicleAgent& operator=(const VehicleAgent&) = delete;

  /// Flushes the completed-session tally to the installed obs registry in
  /// one shot (the per-session path is hot under fleet scenarios).
  virtual ~VehicleAgent();

  /// Subscribes to world events and begins serving.  Call exactly once,
  /// before the simulation runs.
  void start();

  const MobileCharger& charger() const { return mc_; }

  // --- fault-injection hooks -------------------------------------------------
  /// MC component fault: halts on the spot, truncates any active session,
  /// drains `budget_loss` of the battery capacity, and stops planning until
  /// repaired.  `permanent` means no repair will follow.  Idempotent while
  /// already broken.
  void fault_breakdown(double budget_loss, bool permanent);
  /// Repair complete: resumes planning from the breakdown position.
  /// No-op when not broken or when the breakdown was permanent.
  void fault_repair();
  bool broken() const { return broken_; }

  /// Fleet handoff: permanently adds `nodes` to this vehicle's territory
  /// (e.g. the cell of a permanently lost fleet member) and kicks planning
  /// if the vehicle is idle.  No-op on a whole-network agent (empty
  /// territory already covers everything).
  void adopt_territory(std::span<const net::NodeId> nodes);

 protected:
  enum class State { Idle, Traveling, Charging, ToDepot, DepotCharging,
                     Broken };

  /// What a session about to start radiates and delivers.
  struct Session {
    Seconds duration = 0.0;  ///< planned stay
    Watts dc = 0.0;          ///< harvested DC at the node
    Watts radiated = 0.0;    ///< source power the vehicle emits
    Watts rf_observed = 0.0; ///< RF at the node's communication antenna
    Watts probe_rf = 0.0;    ///< RF at the nearest alive neighbour
    Meters probe_distance = 0.0;
    bool spoofed = false;
  };

  VehicleAgent(sim::World& world, const ChargerParams& charger,
               std::span<const net::NodeId> territory,
               double battery_reserve_fraction);

  bool in_territory(net::NodeId id) const {
    return territory_.empty() || territory_.count(id) > 0;
  }
  /// Sends an idle vehicle to the depot when its battery is below the
  /// reserve, else lets plan_leg() engage the next leg.  No-op when broken.
  void plan_next();
  /// Drives to dock next to `id`; on arrival the session starts.
  void travel_to_node(net::NodeId id);
  /// RF a probing neighbour measures from a benign source docked at
  /// `node`, and the distance to that nearest alive neighbour (+inf and
  /// 0 W when none is alive).
  std::pair<Watts, Meters> witness_probe(net::NodeId node) const;
  std::uint64_t sessions_ended() const { return sessions_ended_; }

  // --- policy hooks ----------------------------------------------------------
  /// Runs once in start(), before the world listeners subscribe.
  virtual void on_start() {}
  /// Engages the next leg of an idle vehicle with battery to spare, or
  /// leaves it idle until a request wakes it.
  virtual void plan_leg() = 0;
  /// A territory request arrived while the vehicle travels to `target_`.
  virtual void on_request_en_route(net::NodeId) {}
  /// Sees every death before the shared target-death handling.
  virtual void observe_death(net::NodeId) {}
  /// Whether a target that is alive on arrival is still served.
  virtual bool serves_on_arrival(net::NodeId) const { return true; }
  /// Fixes the payload of a session on `id` that must deliver `deficit` J.
  virtual Session open_session(net::NodeId id, Joules deficit) = 0;
  /// Last look at a finished session's record before the trace stores it.
  virtual void close_session(sim::SessionRecord&) {}

  sim::World& world_;
  MobileCharger mc_;
  State state_ = State::Idle;
  net::NodeId target_ = net::kInvalidNode;
  std::uint64_t event_version_ = 0;  ///< invalidates stale scheduled events

 private:
  void on_request(net::NodeId id);
  void on_death(net::NodeId id);
  void go_to_depot();
  void on_arrival(std::uint64_t version);
  void start_session(net::NodeId id);
  void end_session(std::uint64_t version);

  std::unordered_set<net::NodeId> territory_;
  double battery_reserve_fraction_;
  bool started_ = false;
  bool broken_ = false;
  bool permanently_broken_ = false;

  Seconds session_start_ = 0.0;
  Session session_;
  std::uint64_t sessions_ended_ = 0;
};

/// Honest charging service bound to a world.
class ChargerAgent final : public VehicleAgent {
 public:
  ChargerAgent(sim::World& world, const AgentParams& params);

  std::uint64_t sessions_completed() const { return sessions_ended(); }

 private:
  void plan_leg() override;
  /// NJNP travel preemption: retarget when the new request is closer.
  void on_request_en_route(net::NodeId id) override;
  /// Genuine service at the realized harvest rate.
  Session open_session(net::NodeId id, Joules deficit) override;
  /// The neighbour witness probes the field as the session ends.
  void close_session(sim::SessionRecord& record) override;

  std::optional<net::NodeId> pick_target();
  std::optional<net::NodeId> pick_tour_target();

  AgentParams params_;

  /// Tour policy state: the planned service order still to be driven.
  std::vector<net::NodeId> tour_queue_;
  std::uint64_t tour_wake_version_ = 0;
};

}  // namespace wrsn::mc
