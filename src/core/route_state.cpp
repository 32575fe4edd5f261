#include "core/route_state.hpp"

#include <algorithm>
#include <limits>

#include "common/check.hpp"

namespace wrsn::csa {
namespace {

constexpr Seconds kInfSlack = std::numeric_limits<Seconds>::infinity();

}  // namespace

RouteState::RouteState(const TideInstance& instance) { bind(instance); }

void RouteState::bind(const TideInstance& instance) {
  inst_ = &instance;
  tt_ = &instance.travel_matrix();
  order_.clear();
  arrival_.clear();
  start_.clear();
  depart_.clear();
  slack_.assign(1, kInfSlack);
  waitsum_.assign(1, 0.0);
}

void RouteState::reserve(std::size_t stops) {
  order_.reserve(stops);
  arrival_.reserve(stops);
  start_.reserve(stops);
  depart_.reserve(stops);
  slack_.reserve(stops + 1);
  waitsum_.reserve(stops + 1);
}

std::optional<Seconds> RouteState::try_insert(std::size_t stop,
                                              std::size_t pos) const {
  WRSN_ASSERT(pos <= order_.size());
  const Stop& s = inst_->stops[stop];

  const Seconds prev_depart = pos == 0 ? inst_->start_time : depart_[pos - 1];
  const Seconds leg_in =
      pos == 0 ? tt_->from_start(stop) : tt_->row(order_[pos - 1])[stop];
  const Seconds arrival = prev_depart + leg_in;
  const Seconds start = std::max(arrival, s.window_open);
  if (start > s.window_close + kWindowEpsilon) return std::nullopt;

  const Seconds depart = start + s.service_time;
  if (pos == order_.size()) return depart - completion();

  // Arrival delay imposed on the first downstream stop (>= 0 up to rounding
  // by the triangle inequality).  Feasible iff the tail can absorb it.
  const Seconds delay = depart + tt_->row(order_[pos])[stop] - arrival_[pos];
  if (delay > slack_[pos]) return std::nullopt;

  // Waiting along the tail soaks up the delay; whatever survives the suffix
  // of waits reaches the completion time.  Residuals within the feasibility
  // epsilon count as fully absorbed, mirroring the naive walk's early exit.
  const Seconds residual = delay - waitsum_[pos];
  return residual > kWindowEpsilon ? residual : 0.0;
}

std::optional<std::pair<std::size_t, Seconds>> RouteState::best_insertion(
    std::size_t stop) const {
  // Flattened position scan: one pass with try_insert's exact arithmetic,
  // but the per-position invariants hoisted out of the loop — the stop's
  // window/service fields, a running previous-departure instead of
  // re-branching on pos == 0, and the leg into position pos + 1, which is
  // the leg out of position pos carried over.  Legs are read from the rows
  // of route stops (row(order_[pos])[stop]), so a candidate's own row is
  // never filled.  Every candidate delta is >= 0 (appending never shortens
  // the route; interior deltas are clamped residuals), so a delta of exactly
  // 0.0 cannot be beaten and, with the first-strict-min tie-break, cannot
  // even be tied away from — scan over.
  const Stop& s = inst_->stops[stop];
  const std::size_t n = order_.size();
  const Seconds open = s.window_open;
  const Seconds close_eps = s.window_close + kWindowEpsilon;
  const Seconds service = s.service_time;

  // Positions whose predecessor already departs past the window close are
  // all rejected by the window check below (start >= prev_depart >
  // close_eps); departures are nondecreasing, so they form a suffix of the
  // position range — skip it outright instead of rejecting one by one.
  const std::size_t pos_end = std::min(
      n, static_cast<std::size_t>(
             std::upper_bound(depart_.begin(), depart_.end(), close_eps) -
             depart_.begin()));

  std::size_t best_pos = n + 1;
  Seconds best_delta = kInfSlack;
  Seconds prev_depart = inst_->start_time;
  Seconds leg_in = tt_->from_start(stop);
  for (std::size_t pos = 0; pos <= pos_end; ++pos) {
    const Seconds leg_out = pos < n ? tt_->row(order_[pos])[stop] : 0.0;
    const Seconds arrival = prev_depart + leg_in;
    const Seconds start = std::max(arrival, open);
    if (start <= close_eps) {
      if (pos == n) {
        const Seconds delta = start + service - completion();
        if (delta < best_delta) {
          best_delta = delta;
          best_pos = pos;
        }
        break;  // last position either way
      }
      const Seconds delay = start + service + leg_out - arrival_[pos];
      if (delay <= slack_[pos]) {
        const Seconds residual = delay - waitsum_[pos];
        const Seconds delta = residual > kWindowEpsilon ? residual : 0.0;
        if (delta < best_delta) {
          best_delta = delta;
          best_pos = pos;
          if (delta == 0.0) break;
        }
      }
    }
    if (pos < n) prev_depart = depart_[pos];
    leg_in = leg_out;
  }
  if (best_pos > n) return std::nullopt;
  return std::make_pair(best_pos, best_delta);
}

void RouteState::insert(std::size_t stop, std::size_t pos) {
  WRSN_ASSERT(try_insert(stop, pos).has_value());
  order_.insert(order_.begin() + static_cast<std::ptrdiff_t>(pos), stop);
  rebuild();
}

Plan RouteState::to_plan() const {
  const auto plan = evaluate_order(*inst_, order_);
  WRSN_ASSERT(plan.has_value());
  return *plan;
}

void RouteState::to_plan_into(Plan& out) const {
  const bool ok = evaluate_order_into(*inst_, order_, out);
  WRSN_ASSERT(ok);
  (void)ok;
}

void RouteState::rebuild() {
  const std::size_t n = order_.size();
  arrival_.resize(n);
  start_.resize(n);
  depart_.resize(n);
  slack_.resize(n + 1);
  waitsum_.resize(n + 1);

  Seconds clock = inst_->start_time;
  for (std::size_t k = 0; k < n; ++k) {
    const Stop& s = inst_->stops[order_[k]];
    const Seconds leg = k == 0 ? tt_->from_start(order_[0])
                               : tt_->row(order_[k - 1])[order_[k]];
    arrival_[k] = clock + leg;
    start_[k] = std::max(arrival_[k], s.window_open);
    WRSN_ASSERT(start_[k] <= s.window_close + kWindowEpsilon);
    depart_[k] = start_[k] + s.service_time;
    clock = depart_[k];
  }

  // Backward pass.  Two thresholds per suffix, matching the naive tail walk
  // stop by stop:
  //   slack_[k]: delay bound when stop k is the FIRST downstream stop (its
  //     window is checked before any absorbed-delay early exit can trigger);
  //   interior[k]: bound for stops deeper in the walk, where a delay that
  //     has shrunk to <= kWindowEpsilon exits early as "absorbed" before
  //     the stop's window is consulted — hence the max(..., epsilon).
  slack_[n] = kInfSlack;
  waitsum_[n] = 0.0;
  Seconds interior = kInfSlack;
  for (std::size_t k = n; k-- > 0;) {
    const Stop& s = inst_->stops[order_[k]];
    const Seconds wait = start_[k] - arrival_[k];
    const Seconds margin = s.window_close + kWindowEpsilon - start_[k];
    waitsum_[k] = wait + waitsum_[k + 1];
    slack_[k] = std::min(wait + margin, wait + interior);
    interior =
        std::min(std::max(wait + margin, kWindowEpsilon), wait + interior);
  }
}

}  // namespace wrsn::csa
