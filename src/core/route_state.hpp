// Incrementally maintained TIDE route with O(1) insertion feasibility.
//
// The classic insertion check walks the downstream tail of the route to see
// whether the delay introduced by a new stop breaks any later time window —
// O(route) per candidate position, O(route^2) per best_insertion.  This
// RouteState instead maintains two suffix arrays over the current schedule
// (the push-forward slack technique of the deadline-driven charging
// literature):
//
//   slack_[pos]   — the largest arrival delay the tail starting at position
//                   `pos` can absorb before some downstream service would
//                   start after its window closes.  Encodes the evaluator's
//                   exact semantics, including the kWindowEpsilon tolerance
//                   and the "delay fully absorbed by waiting" early exit.
//   waitsum_[pos] — total waiting time (service_start - arrival) from
//                   position `pos` to the end of the route.  An arrival
//                   delay d at `pos` propagates to the route completion as
//                   max(0, d - waitsum_[pos]) because each wait absorbs
//                   delay before it reaches the next leg.
//
// With these, try_insert answers both feasibility and the completion-time
// delta in O(1), so best_insertion is O(route) and the CSA planner's greedy
// fill drops from O(U^2 R^2) to roughly O(U R) per plan.  Both arrays are
// recomputed by rebuild() in O(route) after every committed insertion; the
// invariant is checked against the naive tail walk by core_test and the
// plan-equivalence property test (tests/property_test.cpp) which pins this
// implementation to the retained reference in core/reference_planner.hpp.
//
// All travel times come from the instance's TravelMatrix and are read out
// of the rows of route stops, row(order_[pos])[stop], never out of the
// candidate's own row.  The lazily filled matrix therefore computes rows
// only for stops that join the route (R rows of S cells per plan, not S^2),
// and the inner loops perform no sqrt once those rows exist.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/tide.hpp"

namespace wrsn::csa {

class RouteState {
 public:
  /// Unbound state; call bind() before use.  Lets planners keep a RouteState
  /// arena across plan() calls (storage is reused, not reallocated).
  RouteState() = default;
  /// Binds to `instance` (not owned) and forces its travel matrix.
  explicit RouteState(const TideInstance& instance);

  /// Rebinds to `instance` and resets to the empty route, KEEPING the
  /// existing array capacity — the zero-alloc replan path.
  void bind(const TideInstance& instance);
  /// Grows every internal array's capacity to hold a route of `stops` stops
  /// so later inserts cannot reallocate.
  void reserve(std::size_t stops);

  const std::vector<std::size_t>& order() const { return order_; }
  Seconds completion() const {
    return depart_.empty() ? inst_->start_time : depart_.back();
  }
  /// Completion-time increase if `stop` were inserted at `pos`;
  /// nullopt when any window (the stop's or a downstream one) would break.
  /// O(1): the downstream check is `delay <= slack_[pos]`.
  std::optional<Seconds> try_insert(std::size_t stop, std::size_t pos) const;

  /// Best insertion position for `stop` by minimum completion-time increase
  /// (ties: smallest position).  O(route).
  std::optional<std::pair<std::size_t, Seconds>> best_insertion(
      std::size_t stop) const;

  /// Read-only views of the maintained schedule arrays, for the batched
  /// position-major candidate rescore in core/celf_fill.cpp: arrivals /
  /// starts / departures are per current position (size order().size()),
  /// slacks / waitsums are the suffix arrays described above (one longer).
  /// The batch pass evaluates try_insert's exact arithmetic against these,
  /// so its results are bit-identical to best_insertion.
  const std::vector<Seconds>& arrivals() const { return arrival_; }
  const std::vector<Seconds>& departures() const { return depart_; }
  const std::vector<Seconds>& slacks() const { return slack_; }
  const std::vector<Seconds>& waitsums() const { return waitsum_; }
  Seconds start_time() const { return inst_->start_time; }

  void insert(std::size_t stop, std::size_t pos);

  Plan to_plan() const;
  /// Allocation-free variant: evaluates the route into `out` in place.
  void to_plan_into(Plan& out) const;

 private:
  void rebuild();

  const TideInstance* inst_ = nullptr;
  const TravelMatrix* tt_ = nullptr;
  std::vector<std::size_t> order_;
  std::vector<Seconds> arrival_;
  std::vector<Seconds> start_;
  std::vector<Seconds> depart_;
  /// Max absorbable arrival delay per position; size order_.size() + 1,
  /// slack_[order_.size()] = +inf (empty tail absorbs anything).
  std::vector<Seconds> slack_;
  /// Suffix sums of waiting time; size order_.size() + 1, last entry 0.
  std::vector<Seconds> waitsum_;
};

}  // namespace wrsn::csa
