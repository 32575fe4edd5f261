#include "core/fleet_planner.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>

#include "common/check.hpp"
#include "core/route_state.hpp"
#include "obs/metrics.hpp"

namespace wrsn::csa {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Key stop indices in EDF order, filled into caller-owned scratch.  Unlike
/// the single-charger planners (which sort by window_close only and lean on
/// std::sort stability being irrelevant there), the fleet phases interleave
/// chargers, so the order is made a TOTAL one: ties on window_close break to
/// the lower stop index.
void keys_edf(const std::vector<Stop>& stops, std::vector<std::size_t>& keys) {
  keys.clear();
  for (std::size_t i = 0; i < stops.size(); ++i) {
    if (stops[i].is_key) keys.push_back(i);
  }
  std::sort(keys.begin(), keys.end(), [&](std::size_t a, std::size_t b) {
    if (stops[a].window_close != stops[b].window_close) {
      return stops[a].window_close < stops[b].window_close;
    }
    return a < b;
  });
}

/// Resets `p` to the empty plan a dead or auction-less charger reports.
void reset_plan(Plan& p, std::size_t keys_total) {
  p.visits.clear();
  p.utility = 0.0;
  p.keys_scheduled = 0;
  p.keys_total = keys_total;
  p.completion_time = 0.0;
}

/// Nearest alive charger by SQUARED depot distance, ties to the lower
/// charger index (`alive` is ascending) — mc::nearest_depot's rule.
std::size_t seed_charger(const FleetInstance& instance, geom::Vec2 p,
                         const std::vector<std::size_t>& alive) {
  std::size_t best = alive.front();
  double best_sq =
      (p - instance.chargers[best].start_position).norm_sq();
  for (std::size_t j = 1; j < alive.size(); ++j) {
    const std::size_t k = alive[j];
    const double d = (p - instance.chargers[k].start_position).norm_sq();
    if (d < best_sq) {
      best_sq = d;
      best = k;
    }
  }
  return best;
}

/// Phase D for one charger: the CSA lazy (CELF-style) cost-benefit fill of
/// core/planners.cpp, restricted to the utility stops of `cell`.  Stops the
/// fill leaves uninserted (pre-filtered unreachable ones included: they are
/// infeasible at every position, so the reference's full rescans reject
/// them too) are appended to `spill` for the fleet-wide re-auction.
void fill_cell_celf(const TideInstance& instance, RouteState& route,
                    const std::vector<std::size_t>& cell, CelfFill& fill,
                    std::vector<std::size_t>& spill) {
  const TravelMatrix& tt = instance.travel_matrix();
  std::vector<CelfCandidate>& candidates = fill.candidates();
  candidates.clear();
  candidates.reserve(cell.size());
  for (const std::size_t i : cell) {
    const Stop& s = instance.stops[i];
    if (instance.start_time + tt.from_start(i) >
        s.window_close + kWindowEpsilon + 1e-6) {
      spill.push_back(i);  // unreachable even straight from the start
      continue;
    }
    CelfCandidate c;
    c.stop = i;
    c.utility = s.utility;
    c.open = s.window_open;
    c.close_eps = s.window_close + kWindowEpsilon;
    c.service = s.service_time;
    candidates.push_back(c);
  }
  // The fleet planner keeps no per-fill observability tallies; feed the
  // shared engine throwaway accumulators.
  std::uint64_t tried = 0;
  std::uint64_t misses = 0;
  fill.run(instance, route, tried, misses);
  for (const CelfCandidate& c : candidates) {
    if (!c.inserted) spill.push_back(c.stop);
  }
}

}  // namespace

std::size_t FleetInstance::key_count() const {
  std::size_t n = 0;
  for (const Stop& s : stops) {
    if (s.is_key) ++n;
  }
  return n;
}

void FleetInstance::validate() const {
  if (chargers.empty()) throw ConfigError("fleet has no chargers");
  for (const FleetCharger& c : chargers) {
    if (c.speed <= 0.0) throw ConfigError("fleet charger speed must be > 0");
  }
  // The member instances are assembled from this pool verbatim.
  validate_stops(stops);
}

FleetPlan CooperativeFleetPlanner::plan(const FleetInstance& instance) const {
  FleetPlan out;
  plan_into(instance, out);
  return out;
}

void CooperativeFleetPlanner::plan_into(const FleetInstance& instance,
                                        FleetPlan& out) const {
  instance.validate();
  const std::size_t m = instance.chargers.size();

  out.plans.resize(m);
  out.unscheduled_keys.clear();
  out.utility = 0.0;
  out.keys_scheduled = 0;
  out.keys_total = instance.key_count();
  out.auction_moves = 0;

  alive_.clear();
  for (std::size_t k = 0; k < m; ++k) {
    if (instance.chargers[k].alive) alive_.push_back(k);
  }
  keys_edf(instance.stops, keys_);

  if (alive_.empty()) {
    out.unscheduled_keys = keys_;
    for (Plan& p : out.plans) reset_plan(p, out.keys_total);
    WRSN_OBS_COUNT(kFleetPlans);
    WRSN_OBS_ADD(kFleetUnscheduledKeys, double(out.unscheduled_keys.size()));
    return;
  }

  insts_.resize(m);
  routes_.resize(m);
  for (const std::size_t k : alive_) {
    insts_[k].start_position = instance.chargers[k].start_position;
    insts_[k].start_time = instance.chargers[k].start_time;
    insts_[k].speed = instance.chargers[k].speed;
    insts_[k].stops = instance.stops;
    insts_[k].rebuild_travel_matrix();
    routes_[k].bind(insts_[k]);
    routes_[k].reserve(instance.stops.size());
  }

  // (A) Spatial seed.
  seed_.resize(instance.stops.size());
  for (std::size_t i = 0; i < instance.stops.size(); ++i) {
    seed_[i] = seed_charger(instance, instance.stops[i].position, alive_);
  }

  // (B) Per-charger EDF key skeleton.
  orphans_.clear();
  for (const std::size_t key : keys_) {
    RouteState& route = routes_[seed_[key]];
    if (const auto best = route.best_insertion(key)) {
      route.insert(key, best->first);
    } else {
      orphans_.push_back(key);
    }
  }

  // (C) Orphan key auction: min completion-time delta over all alive
  // chargers (the seed re-bids), ties to the lower charger index.
  const auto auction = [&](std::size_t stop) -> std::optional<std::size_t> {
    std::optional<std::size_t> winner;
    std::size_t winner_pos = 0;
    Seconds winner_delta = kInf;
    for (const std::size_t k : alive_) {
      const auto bid = routes_[k].best_insertion(stop);
      if (bid && bid->second < winner_delta) {
        winner = k;
        winner_pos = bid->first;
        winner_delta = bid->second;
      }
    }
    if (winner) routes_[*winner].insert(stop, winner_pos);
    return winner;
  };
  for (const std::size_t key : orphans_) {
    if (const auto winner = auction(key)) {
      if (*winner != seed_[key]) ++out.auction_moves;
    } else {
      out.unscheduled_keys.push_back(key);
    }
  }

  // (D) Per-charger utility fill restricted to the seed cell.
  spill_.clear();
  for (const std::size_t k : alive_) {
    cell_.clear();
    for (std::size_t i = 0; i < instance.stops.size(); ++i) {
      const Stop& s = instance.stops[i];
      if (!s.is_key && s.utility > 0.0 && seed_[i] == k) cell_.push_back(i);
    }
    fill_cell_celf(insts_[k], routes_[k], cell_, fill_, spill_);
  }

  // (E) Utility spill auction, descending utility (ties: lower stop index).
  std::sort(spill_.begin(), spill_.end(), [&](std::size_t a, std::size_t b) {
    const double ua = instance.stops[a].utility;
    const double ub = instance.stops[b].utility;
    return ua != ub ? ua > ub : a < b;
  });
  for (const std::size_t stop : spill_) {
    if (const auto winner = auction(stop)) {
      if (*winner != seed_[stop]) ++out.auction_moves;
    }
  }

  for (std::size_t k = 0; k < m; ++k) {
    if (instance.chargers[k].alive) {
      routes_[k].to_plan_into(out.plans[k]);
    } else {
      reset_plan(out.plans[k], out.keys_total);
    }
    out.utility += out.plans[k].utility;
    out.keys_scheduled += out.plans[k].keys_scheduled;
  }
  WRSN_ASSERT(out.keys_scheduled + out.unscheduled_keys.size() ==
              out.keys_total);

  WRSN_OBS_COUNT(kFleetPlans);
  WRSN_OBS_ADD(kFleetAuctionMoves, double(out.auction_moves));
  WRSN_OBS_ADD(kFleetUnscheduledKeys, double(out.unscheduled_keys.size()));
}

}  // namespace wrsn::csa
