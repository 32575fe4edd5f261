// Shared lazy (CELF-style) cost-benefit greedy fill engine.
//
// Both the single-charger CsaPlanner and the fleet planner's per-cell fill
// run the same greedy loop: pick the feasible candidate maximizing
// utility / max(delta, 1) (ties to the smallest stop index), insert it,
// repeat.  This engine owns that loop plus the arenas that make it fast and
// allocation-free after warmup:
//
//   - the candidate pool (built by the caller, sorted and scanned here with
//     the CELF utility-bound cutoff of core/planners.cpp — selection is
//     bit-identical to the classic full-rescore reference loop);
//   - a BATCHED POSITION-MAJOR rescore for pools large enough that the
//     per-candidate travel-matrix gathers stop being cache-resident.  The
//     route is frozen while a round rescores candidates, so the refresh
//     loops over route positions on the outside and candidates on the
//     inside: per position it broadcasts the route-side scalars (previous
//     departure, downstream arrival, slack, waitsum) and streams contiguous
//     per-candidate lanes — leg rows legs_t[pos][ci] ==
//     row(order[pos])[stop_ci], hoisted window/service fields, and one
//     running best-delta accumulator.  Every inner statement is a
//     straight-line blend/min, so the compiler vectorizes it.  Each
//     committed insertion shifts the row block one slot (one contiguous
//     memmove) and writes one new row gathered from the inserted stop's
//     matrix row.  Like RouteState, the engine reads the matrix rows of
//     route stops only, so the lazily filled matrix never computes a row
//     for a candidate that stays off the route.
//
// The batch pass evaluates try_insert's exact arithmetic expression (lanes
// hold exact copies of matrix cells), so the per-candidate minimum delta is
// bit-identical to a scalar best_insertion scan.  The selection scan walks
// 16-byte sort keys in the same utility-descending order and reads the
// refresh outputs directly — same conditionals, same tie-breaks, and the
// same consult count.  The winning candidate's insertion POSITION is then
// recovered with one scalar best_insertion call per round, cross-checked
// against the batched delta — so plans and the consult counter are
// bit-identical to the plain best_insertion path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/route_state.hpp"
#include "core/tide.hpp"

namespace wrsn::csa {

/// Per-stop scratch entry of the lazy greedy fill.  Public only so planners
/// can keep a candidate arena alive across plan() calls; not a result type.
struct CelfCandidate {
  std::size_t stop = 0;
  double utility = 0.0;       ///< cached stops[stop].utility (the CELF bound)
  Seconds open = 0.0;         ///< cached stops[stop].window_open
  Seconds close_eps = 0.0;    ///< cached window_close + kWindowEpsilon
  Seconds service = 0.0;      ///< cached stops[stop].service_time
  bool inserted = false;
};

/// The fill engine.  Reuse one instance across plan() calls: every buffer
/// (candidates, lanes, accumulators) is an arena, so a steady-state replan
/// over a previously seen problem size performs no heap allocation.
class CelfFill {
 public:
  /// The candidate pool.  Callers clear and refill it (stop, utility and the
  /// hoisted window/service fields) before each run(); run() sorts it.
  std::vector<CelfCandidate>& candidates() { return candidates_; }

  /// Runs greedy rounds on `route` until no feasible candidate remains,
  /// marking inserted candidates.  Each consult scores one insertion and
  /// adds one to both `insertions_tried` and `cache_misses` (the planner's
  /// observability counters).  Within a round each candidate is consulted
  /// at most once, and every round ends in an insertion that moves the
  /// route, so no score outlives its round.
  void run(const TideInstance& instance, RouteState& route,
           std::uint64_t& insertions_tried, std::uint64_t& cache_misses);

 private:
  /// The plain lazy scan over sorted candidate structs (small pools).
  void run_lazy(RouteState& route, std::uint64_t& misses);
  /// The batched path: position-major refresh + key-order selection scan.
  void run_batch(const TideInstance& instance, RouteState& route,
                 std::uint64_t& misses);
  void init_batch(const TideInstance& instance, const RouteState& route);
  /// Recomputes best_d_ for every candidate against the current route — the
  /// position-major vector pass.
  void refresh_batch(const RouteState& route);
  /// Shifts the transposed rows for an insertion of `stop` at route position
  /// `pos` (`route_len` = new route length) and fills the new row.
  void push_row(const TideInstance& instance, std::size_t stop,
                std::size_t pos, std::size_t route_len);

  std::vector<CelfCandidate> candidates_;
  /// Transposed leg rows: legs_t_[pos * stride_ + ci] is candidate ci's leg
  /// to the stop at route position pos.  cols_ = candidates_.size() at
  /// init, stride_ pads it to an 8-column boundary (masked dummy columns);
  /// row_cap_ rows are allocated (row-major, so growing rows is a plain
  /// resize with no relayout).
  std::vector<Seconds> legs_t_;
  std::size_t cols_ = 0;
  std::size_t stride_ = 0;
  std::size_t row_cap_ = 0;
  /// Hoisted per-candidate fields, contiguous for the inner loop.  close_ is
  /// set to -inf once a candidate is inserted, which masks it out of every
  /// later refresh without a branch.
  std::vector<Seconds> leg0_, open_, close_, service_;
  std::vector<std::uint32_t> stop_;
  /// Refresh output: per candidate, the minimum completion-time delta over
  /// all positions, +inf when none is feasible.  The winning position is
  /// recovered per round with one scalar best_insertion, keeping the
  /// streamed accumulator a single array.
  std::vector<Seconds> best_d_;
  /// Batch scan order: 16-byte keys sorted utility-descending (ties to the
  /// smaller stop) drive the selection scan directly, so the candidate
  /// structs are never permuted in batch mode.
  struct SortKey {
    double utility;
    std::uint32_t stop;
    std::uint32_t index;
  };
  std::vector<SortKey> sort_keys_;
};

}  // namespace wrsn::csa
