#include "mc/agent.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>

#include "common/check.hpp"
#include "common/log.hpp"
#include "mc/tsp.hpp"
#include "obs/metrics.hpp"

namespace wrsn::mc {

void AgentParams::validate() const {
  charger.validate();
  if (battery_reserve_fraction < 0.0 || battery_reserve_fraction >= 1.0) {
    throw ConfigError("battery_reserve_fraction must be in [0, 1)");
  }
  if (tour_batch == 0) throw ConfigError("tour_batch must be >= 1");
  if (tour_max_wait < 0.0) throw ConfigError("tour_max_wait < 0");
}

// ---------------------------------------------------------------------------
// VehicleAgent: the vehicle protocol
// ---------------------------------------------------------------------------

VehicleAgent::VehicleAgent(sim::World& world, const ChargerParams& charger,
                           std::span<const net::NodeId> territory,
                           double battery_reserve_fraction)
    : world_(world),
      mc_(charger),
      territory_(territory.begin(), territory.end()),
      battery_reserve_fraction_(battery_reserve_fraction) {}

VehicleAgent::~VehicleAgent() {
  WRSN_OBS_ADD(kMcSessions, double(sessions_ended_));
}

void VehicleAgent::start() {
  WRSN_REQUIRE(!started_, "agent already started");
  started_ = true;
  on_start();
  world_.add_request_listener([this](net::NodeId id) { on_request(id); });
  world_.add_death_listener([this](net::NodeId id) { on_death(id); });
  if (state_ == State::Idle) plan_next();
}

void VehicleAgent::on_request(net::NodeId id) {
  if (!in_territory(id)) return;
  if (state_ == State::Idle) {
    plan_next();
  } else if (state_ == State::Traveling) {
    on_request_en_route(id);
  }
  // Otherwise (charging, at or bound for the depot, broken) the request
  // stays pending and enters the next plan.
}

void VehicleAgent::on_death(net::NodeId id) {
  observe_death(id);
  if (id != target_) return;
  const Seconds now = world_.simulator().now();
  if (state_ == State::Traveling) {
    mc_.halt(now);
    ++event_version_;
    target_ = net::kInvalidNode;
    state_ = State::Idle;
    plan_next();
  } else if (state_ == State::Charging) {
    ++event_version_;  // invalidate the scheduled session end
    end_session(event_version_);
  }
}

void VehicleAgent::fault_breakdown(double budget_loss, bool permanent) {
  WRSN_REQUIRE(budget_loss >= 0.0 && budget_loss <= 1.0,
               "budget_loss must be in [0, 1]");
  if (broken_) {
    permanently_broken_ = permanently_broken_ || permanent;
    return;
  }
  broken_ = true;
  permanently_broken_ = permanent;
  const Seconds now = world_.simulator().now();
  switch (state_) {
    case State::Traveling:
    case State::ToDepot:
      mc_.halt(now);
      ++event_version_;  // invalidate the in-flight arrival event
      target_ = net::kInvalidNode;
      break;
    case State::Charging:
      // Truncate the session cleanly: the node is told service ended and
      // credits only the expected gain of the shortened stay.  plan_next at
      // the session tail no-ops on broken_.
      end_session(++event_version_);
      break;
    case State::DepotCharging:
      ++event_version_;  // invalidate the depot-completion event
      break;
    case State::Idle:
    case State::Broken:
      break;
  }
  mc_.damage(budget_loss * mc_.params().battery_capacity);
  state_ = State::Broken;
  WRSN_LOG(Debug) << "vehicle breakdown at t=" << now
                  << (permanent ? " (permanent)" : "");
}

void VehicleAgent::fault_repair() {
  if (!broken_ || permanently_broken_) return;
  broken_ = false;
  state_ = State::Idle;
  WRSN_LOG(Debug) << "vehicle repaired at t=" << world_.simulator().now();
  if (started_) plan_next();
}

void VehicleAgent::adopt_territory(std::span<const net::NodeId> nodes) {
  // A whole-network agent (empty territory) already answers everything.
  if (territory_.empty()) return;
  territory_.insert(nodes.begin(), nodes.end());
  WRSN_LOG(Debug) << "vehicle adopted " << nodes.size() << " nodes at t="
                  << world_.simulator().now();
  if (started_ && !broken_ && state_ == State::Idle) plan_next();
}

void VehicleAgent::plan_next() {
  if (broken_) return;  // a broken vehicle plans nothing until repaired
  WRSN_ASSERT(state_ == State::Idle);
  if (mc_.battery_fraction() < battery_reserve_fraction_) {
    go_to_depot();
    return;
  }
  plan_leg();
}

void VehicleAgent::travel_to_node(net::NodeId id) {
  const Seconds now = world_.simulator().now();
  const geom::Vec2 node_pos = world_.network().node(id).position;
  // Dock at dock_distance short of the node, approaching along the line
  // from the current position.
  const geom::Vec2 pos = mc_.position(now);
  const Meters dock = world_.charging_model().params().dock_distance;
  const geom::Vec2 approach = (node_pos - pos).normalized();
  const geom::Vec2 dock_pos =
      geom::distance(pos, node_pos) > dock ? node_pos - approach * dock : pos;

  target_ = id;
  state_ = State::Traveling;
  const Seconds arrival = mc_.begin_travel(now, dock_pos);
  const std::uint64_t version = ++event_version_;
  world_.simulator().schedule_at(
      arrival, [this, version] { on_arrival(version); });
}

void VehicleAgent::go_to_depot() {
  const Seconds now = world_.simulator().now();
  state_ = State::ToDepot;
  target_ = net::kInvalidNode;
  const Seconds arrival = mc_.begin_travel(now, mc_.params().depot);
  const std::uint64_t version = ++event_version_;
  world_.simulator().schedule_at(
      arrival, [this, version] { on_arrival(version); });
}

void VehicleAgent::on_arrival(std::uint64_t version) {
  if (version != event_version_) return;
  const Seconds now = world_.simulator().now();
  mc_.arrive(now);

  if (state_ == State::ToDepot) {
    state_ = State::DepotCharging;
    const Seconds done = now + mc_.depot_recharge_time();
    const std::uint64_t v = ++event_version_;
    world_.simulator().schedule_at(done, [this, v] {
      if (v != event_version_) return;
      mc_.recharge_full();
      state_ = State::Idle;
      plan_next();
    });
    return;
  }

  WRSN_ASSERT(state_ == State::Traveling);
  const net::NodeId node = target_;
  if (!world_.alive(node) || !serves_on_arrival(node)) {
    target_ = net::kInvalidNode;
    state_ = State::Idle;
    plan_next();
    return;
  }
  start_session(node);
}

void VehicleAgent::start_session(net::NodeId id) {
  const Seconds now = world_.simulator().now();
  const Joules capacity = world_.network().node(id).battery_capacity;
  // The node reports its (believed) level with the request; the charger
  // meters its own output and stays docked until the deficit is delivered.
  const Joules deficit = world_.params().charge_target_fraction * capacity -
                         world_.believed_level(id);
  if (deficit <= 0.0) {
    // Node is above target (e.g. stale request); acknowledge and move on.
    world_.note_service_started(id);
    world_.note_service_ended(id, 0.0, 0.0);
    target_ = net::kInvalidNode;
    state_ = State::Idle;
    plan_next();
    return;
  }

  session_ = open_session(id, deficit);
  state_ = State::Charging;
  session_start_ = now;

  world_.note_service_started(id);
  world_.set_charge_input(id, session_.dc);

  const std::uint64_t version = ++event_version_;
  world_.simulator().schedule_at(now + session_.duration,
                                 [this, version] { end_session(version); });
}

std::pair<Watts, Meters> VehicleAgent::witness_probe(net::NodeId node) const {
  const net::Network& network = world_.network();
  Meters nearest = std::numeric_limits<Meters>::infinity();
  for (const net::NodeId nb : network.neighbors(node)) {
    if (!world_.alive(nb)) continue;
    nearest = std::min(nearest, network.distance(node, nb));
  }
  if (!std::isfinite(nearest)) return {0.0, nearest};
  return {world_.charging_model().rf_at_distance(nearest), nearest};
}

void VehicleAgent::end_session(std::uint64_t version) {
  if (version != event_version_) return;
  WRSN_ASSERT(state_ == State::Charging);
  const Seconds now = world_.simulator().now();
  const net::NodeId node = target_;
  const Seconds duration = now - session_start_;
  const Joules expected = world_.expected_session_gain(duration);
  const Joules delivered = session_.dc * duration;

  world_.set_charge_input(node, 0.0);
  world_.note_service_ended(node, expected, delivered);
  mc_.radiate(session_.radiated, duration, session_.spoofed);

  sim::SessionRecord record;
  record.node = node;
  record.start = session_start_;
  record.end = now;
  record.kind = session_.spoofed ? sim::SessionKind::Spoofed
                                 : sim::SessionKind::Genuine;
  record.expected_gain = expected;
  record.delivered = delivered;
  record.rf_observed = session_.rf_observed;
  record.rf_neighbor_probe = session_.probe_rf;
  record.nearest_probe_distance = session_.probe_distance;
  record.radiated = session_.radiated * duration;
  close_session(record);
  world_.trace().sessions.push_back(record);
  WRSN_OBS_OBSERVE(kMcSessionEnergyJ, delivered);
  ++sessions_ended_;
  WRSN_LOG(Debug) << (session_.spoofed ? "SPOOFED" : "genuine")
                  << " session on node " << node << " [" << session_start_
                  << ", " << now << ") delivered " << delivered << " J of "
                  << expected << " J expected";

  target_ = net::kInvalidNode;
  state_ = State::Idle;
  plan_next();
}

// ---------------------------------------------------------------------------
// ChargerAgent: the honest service
// ---------------------------------------------------------------------------

ChargerAgent::ChargerAgent(sim::World& world, const AgentParams& params)
    : VehicleAgent(world, params.charger, params.territory,
                   params.battery_reserve_fraction),
      params_(params) {
  params_.validate();
}

void ChargerAgent::plan_leg() {
  const std::optional<net::NodeId> target = pick_target();
  if (!target.has_value()) return;  // stay idle; next request wakes us
  travel_to_node(*target);
}

void ChargerAgent::on_request_en_route(net::NodeId id) {
  if (params_.policy != SchedulePolicy::Njnp || !params_.preempt_travel) {
    return;
  }
  const Seconds now = world_.simulator().now();
  const geom::Vec2 pos = mc_.position(now);
  const Meters d_new = geom::distance(pos, world_.network().node(id).position);
  const Meters d_cur =
      geom::distance(pos, world_.network().node(target_).position);
  if (d_new + 1e-9 < d_cur) {
    mc_.halt(now);
    ++event_version_;  // invalidate the in-flight arrival event
    travel_to_node(id);
  }
}

std::optional<net::NodeId> ChargerAgent::pick_target() {
  if (params_.policy == SchedulePolicy::Tour) return pick_tour_target();

  // pending_nodes() is the world's maintained index (alive nodes with an
  // outstanding request): no per-decision scan or allocation.
  const std::vector<net::NodeId>& pending = world_.pending_nodes();
  if (pending.empty()) return std::nullopt;

  const Seconds now = world_.simulator().now();
  const geom::Vec2 pos = mc_.position(now);

  net::NodeId best = net::kInvalidNode;
  double best_score = std::numeric_limits<double>::infinity();
  for (const net::NodeId node : pending) {
    if (!in_territory(node)) continue;
    double score = 0.0;
    switch (params_.policy) {
      case SchedulePolicy::Njnp:
        score = geom::distance(pos, world_.network().node(node).position);
        break;
      case SchedulePolicy::Edf:
        score = world_.pending_request(node).escalation_deadline;
        break;
      case SchedulePolicy::Fcfs:
        score = world_.pending_request(node).requested_at;
        break;
      case SchedulePolicy::Tour:
        break;  // handled above
    }
    if (score < best_score) {
      best_score = score;
      best = node;
    }
  }
  if (best == net::kInvalidNode) return std::nullopt;
  return best;
}

std::optional<net::NodeId> ChargerAgent::pick_tour_target() {
  const Seconds now = world_.simulator().now();

  // Drive the remainder of the committed tour first.
  while (!tour_queue_.empty()) {
    const net::NodeId next = tour_queue_.front();
    tour_queue_.erase(tour_queue_.begin());
    if (world_.alive(next) && world_.has_pending_request(next)) return next;
  }

  // Collect the batch candidates from the maintained pending index.
  std::vector<net::NodeId> batch;
  Seconds oldest = now;
  for (const net::NodeId node : world_.pending_nodes()) {
    if (!in_territory(node)) continue;
    batch.push_back(node);
    oldest = std::min(oldest, world_.pending_request(node).requested_at);
  }
  if (batch.empty()) return std::nullopt;

  const bool batch_full = batch.size() >= params_.tour_batch;
  const bool overdue = now - oldest >= params_.tour_max_wait;
  if (!batch_full && !overdue) {
    // Too early to roll out; wake when the oldest request comes of age.
    // Clamp strictly into the future: floating-point rounding of
    // oldest + max_wait can land exactly on `now` while the >= overdue
    // comparison above just missed, which would spin the event loop.
    const Seconds wake_at =
        std::max(oldest + params_.tour_max_wait, now + 1.0);
    const std::uint64_t version = ++tour_wake_version_;
    world_.simulator().schedule_at(wake_at, [this, version] {
      if (version != tour_wake_version_) return;
      if (state_ == State::Idle) plan_next();
    });
    return std::nullopt;
  }

  // Plan a 2-opt tour over the batch from the current position.
  std::vector<geom::Vec2> points;
  points.reserve(batch.size());
  for (const net::NodeId id : batch) {
    points.push_back(world_.network().node(id).position);
  }
  const std::vector<std::size_t> order =
      plan_tour(points, mc_.position(now));
  tour_queue_.clear();
  for (const std::size_t idx : order) tour_queue_.push_back(batch[idx]);

  const net::NodeId first = tour_queue_.front();
  tour_queue_.erase(tour_queue_.begin());
  return first;
}

VehicleAgent::Session ChargerAgent::open_session(net::NodeId, Joules deficit) {
  const Watts nominal = world_.nominal_dc_power();
  WRSN_ASSERT(nominal > 0.0);
  // Realized harvest rate this session; the charger observes it on its own
  // meter and extends/shortens the stay to hit the energy target exactly.
  const double gain = world_.draw_genuine_gain_factor();
  Session session;
  session.dc = nominal * gain;
  session.duration = deficit / session.dc;
  session.radiated = world_.charging_model().params().source_power;
  session.rf_observed = world_.charging_model().rf_at_distance(
      world_.charging_model().params().dock_distance);
  return session;
}

void ChargerAgent::close_session(sim::SessionRecord& record) {
  std::tie(record.rf_neighbor_probe, record.nearest_probe_distance) =
      witness_probe(record.node);
}

}  // namespace wrsn::mc
