#include "core/tide.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace wrsn::csa {

std::size_t TideInstance::key_count() const {
  return static_cast<std::size_t>(
      std::count_if(stops.begin(), stops.end(),
                    [](const Stop& s) { return s.is_key; }));
}

Seconds TideInstance::travel_time(geom::Vec2 from, geom::Vec2 to) const {
  return geom::distance(from, to) / speed;
}

TravelMatrix TravelMatrix::build(const TideInstance& instance) {
  TravelMatrix m;
  m.rebuild(instance);
  return m;
}

void TravelMatrix::rebuild(const TideInstance& instance) {
  n_ = instance.stops.size();
  stops_ = instance.stops.data();
  speed_ = instance.speed;
  start_row_.resize(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    start_row_[i] =
        geom::distance(instance.start_position, stops_[i].position) / speed_;
  }
  rows_.assign(n_, nullptr);
  pool_used_ = 0;
}

const Seconds* TravelMatrix::fill_row(std::size_t i) const {
  if (pool_used_ == pool_.size()) pool_.emplace_back();
  std::vector<Seconds>& row = pool_[pool_used_++];
  row.resize(n_);
  const geom::Vec2 a = stops_[i].position;
  for (std::size_t j = 0; j < n_; ++j) {
    if (const Seconds* filled = rows_[j]) {
      row[j] = filled[i];  // the pair's value, computed from the other end
      continue;
    }
    row[j] = j == i ? 0.0 : geom::distance(a, stops_[j].position) / speed_;
  }
  rows_[i] = row.data();
  return row.data();
}

const TravelMatrix& TideInstance::travel_matrix() const {
  if (!matrix_.matrix) matrix_.matrix = TravelMatrix::build(*this);
  WRSN_REQUIRE(matrix_.matrix->covers(stops),
               "travel matrix does not cover the instance stops");
  return *matrix_.matrix;
}

void TideInstance::set_travel_matrix(TravelMatrix matrix) {
  WRSN_REQUIRE(matrix.covers(stops),
               "travel matrix does not cover the instance stops");
  matrix_.matrix = std::move(matrix);
}

void TideInstance::rebuild_travel_matrix() {
  if (!matrix_.matrix) matrix_.matrix.emplace();
  matrix_.matrix->rebuild(*this);
}

void validate_stops(std::span<const Stop> stops) {
  for (const Stop& stop : stops) {
    if (stop.window_close < stop.window_open) {
      throw ConfigError("TIDE stop window closes before it opens");
    }
    if (stop.service_time < 0.0) {
      throw ConfigError("TIDE stop has negative service time");
    }
    if (stop.utility < 0.0) {
      throw ConfigError("TIDE stop has negative utility");
    }
  }
}

void TideInstance::validate() const {
  if (speed <= 0.0) throw ConfigError("TIDE speed must be > 0");
  validate_stops(stops);
}

std::optional<Plan> evaluate_order(const TideInstance& instance,
                                   std::span<const std::size_t> order) {
  Plan plan;
  if (!evaluate_order_into(instance, order, plan)) return std::nullopt;
  return plan;
}

bool evaluate_order_into(const TideInstance& instance,
                         std::span<const std::size_t> order, Plan& out) {
  out.visits.clear();
  out.utility = 0.0;
  out.keys_scheduled = 0;
  out.keys_total = instance.key_count();
  out.completion_time = instance.start_time;

  geom::Vec2 pos = instance.start_position;
  Seconds clock = instance.start_time;
  for (const std::size_t idx : order) {
    WRSN_REQUIRE(idx < instance.stops.size(), "stop index out of range");
    const Stop& stop = instance.stops[idx];
    const Seconds arrival = clock + instance.travel_time(pos, stop.position);
    const Seconds start = std::max(arrival, stop.window_open);
    if (start > stop.window_close + kWindowEpsilon) {
      out.visits.clear();
      return false;
    }

    Visit visit;
    visit.stop_index = idx;
    visit.arrival = arrival;
    visit.service_start = start;
    visit.departure = start + stop.service_time;
    out.visits.push_back(visit);

    if (stop.is_key) {
      ++out.keys_scheduled;
    } else {
      out.utility += stop.utility;
    }
    clock = visit.departure;
    pos = stop.position;
  }
  out.completion_time = clock;
  return true;
}

Plan evaluate_order_dropping(const TideInstance& instance,
                             std::span<const std::size_t> order) {
  Plan plan;
  plan.keys_total = instance.key_count();

  geom::Vec2 pos = instance.start_position;
  Seconds clock = instance.start_time;
  for (const std::size_t idx : order) {
    WRSN_REQUIRE(idx < instance.stops.size(), "stop index out of range");
    const Stop& stop = instance.stops[idx];
    const Seconds arrival = clock + instance.travel_time(pos, stop.position);
    const Seconds start = std::max(arrival, stop.window_open);
    if (start > stop.window_close + kWindowEpsilon) {
      continue;  // window missed: skip the stop
    }

    Visit visit;
    visit.stop_index = idx;
    visit.arrival = arrival;
    visit.service_start = start;
    visit.departure = start + stop.service_time;
    plan.visits.push_back(visit);

    if (stop.is_key) {
      ++plan.keys_scheduled;
    } else {
      plan.utility += stop.utility;
    }
    clock = visit.departure;
    pos = stop.position;
  }
  plan.completion_time = clock;
  return plan;
}

}  // namespace wrsn::csa
