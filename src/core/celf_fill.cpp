#include "core/celf_fill.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/check.hpp"

namespace wrsn::csa {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Candidate-pool size from which the batched position-major rescore pays
/// for itself.  Below it the route rows' candidate cells are few enough to
/// stay cache-resident and the plain lazy gathers win.  A work schedule only —
/// selection (and the consult tally) are identical on both paths.
constexpr std::size_t kBatchMin = 64;

/// Column padding of the transposed rows: one cache line of doubles, so
/// every row starts line-aligned relative to the block.
constexpr std::size_t kColAlign = 8;

}  // namespace

void CelfFill::run(const TideInstance& instance, RouteState& route,
                   std::uint64_t& insertions_tried,
                   std::uint64_t& cache_misses) {
  // Local inner-loop tally: a write into the caller's accumulators per
  // scan step (let alone a registry write) would dominate the loop.
  std::uint64_t misses = 0;
  if (candidates_.size() < kBatchMin) {
    run_lazy(route, misses);
  } else {
    run_batch(instance, route, misses);
  }
  cache_misses += misses;
  insertions_tried += misses;  // every consult scores one insertion
}

void CelfFill::run_lazy(RouteState& route, std::uint64_t& misses) {
  // Utility-descending traversal order (ties: ascending stop index) is what
  // makes the CELF cutoff valid; it does not affect selection, which has
  // its own total-order tie-break below.
  std::sort(candidates_.begin(), candidates_.end(),
            [](const CelfCandidate& a, const CelfCandidate& b) {
              return a.utility != b.utility ? a.utility > b.utility
                                            : a.stop < b.stop;
            });
  while (true) {
    double best_score = -kInf;
    CelfCandidate* best = nullptr;
    std::size_t best_pos = 0;
    for (CelfCandidate& c : candidates_) {
      if (c.inserted) continue;
      const double bound = c.utility;
      if (best != nullptr && bound < best_score) break;  // CELF cutoff
      ++misses;
      const auto bi = route.best_insertion(c.stop);
      if (!bi) continue;
      const double score = bound / std::max(bi->second, 1.0);
      if (best == nullptr || score > best_score ||
          (score == best_score && c.stop < best->stop)) {
        best = &c;
        best_score = score;
        best_pos = bi->first;
      }
    }
    if (best == nullptr) break;
    route.insert(best->stop, best_pos);
    best->inserted = true;
  }
}

void CelfFill::run_batch(const TideInstance& instance, RouteState& route,
                         std::uint64_t& misses) {
  init_batch(instance, route);
  // Same utility-descending total order as run_lazy, but over 16-byte keys:
  // the scan below walks the key array directly, so the candidate structs
  // are never permuted or rewritten — each round touches only the key
  // stream and the refresh output arrays.
  sort_keys_.resize(candidates_.size());
  for (std::size_t i = 0; i < candidates_.size(); ++i) {
    sort_keys_[i] = {candidates_[i].utility,
                     static_cast<std::uint32_t>(candidates_[i].stop),
                     static_cast<std::uint32_t>(i)};
  }
  std::sort(sort_keys_.begin(), sort_keys_.end(),
            [](const SortKey& a, const SortKey& b) {
              return a.utility != b.utility ? a.utility > b.utility
                                            : a.stop < b.stop;
            });

  // A round refreshes every candidate up front with the vector pass, then
  // counts one consult per candidate the scan reaches — run_lazy's tally.
  const SortKey* const keys = sort_keys_.data();
  while (true) {
    refresh_batch(route);

    double best_score = -kInf;
    double best_delta = 0.0;
    std::uint32_t best_stop = 0;
    std::size_t best_ci = 0;
    bool found = false;
    for (std::size_t r = 0; r < sort_keys_.size(); ++r) {
      const std::size_t ci = keys[r].index;
      // close_ is forced to -inf on insertion and real windows are finite,
      // so this is exactly the scan's `inserted` skip.
      if (close_[ci] == -kInf) continue;
      const double bound = keys[r].utility;
      if (found && bound < best_score) break;  // CELF cutoff
      ++misses;
      if (best_d_[ci] == kInf) continue;  // no feasible position
      const double score = bound / std::max(best_d_[ci], 1.0);
      if (!found || score > best_score ||
          (score == best_score && keys[r].stop < best_stop)) {
        found = true;
        best_score = score;
        best_delta = best_d_[ci];
        best_stop = keys[r].stop;
        best_ci = ci;
      }
    }
    if (!found) break;
    // The refresh only proves feasibility and the minimum delta; recover the
    // winner's position with one exact scalar scan (O(route) once per round —
    // the refresh pass is O(route * candidates)).
    const auto bi = route.best_insertion(best_stop);
    WRSN_REQUIRE(bi.has_value() && bi->second == best_delta,
                 "batched rescore out of sync with best_insertion");
    const std::size_t best_pos = bi->first;
    route.insert(best_stop, best_pos);
    candidates_[best_ci].inserted = true;  // callers read this flag
    close_[best_ci] = -kInf;
    push_row(instance, best_stop, best_pos, route.order().size());
  }
}

void CelfFill::init_batch(const TideInstance& instance,
                          const RouteState& route) {
  const TravelMatrix& tt = instance.travel_matrix();
  const std::vector<std::size_t>& order = route.order();
  const std::size_t n = order.size();
  cols_ = candidates_.size();
  stride_ = (cols_ + kColAlign - 1) & ~(kColAlign - 1);
  // Row headroom beyond the current route so the common case never resizes;
  // rows are row-major, so growing is a plain resize with no relayout.
  row_cap_ = n + 64;
  legs_t_.resize(row_cap_ * stride_);
  leg0_.resize(stride_);
  open_.resize(stride_);
  close_.resize(stride_);
  service_.resize(stride_);
  stop_.resize(stride_);
  best_d_.resize(stride_);
  for (std::size_t ci = 0; ci < cols_; ++ci) {
    const CelfCandidate& c = candidates_[ci];
    leg0_[ci] = tt.from_start(c.stop);
    open_[ci] = c.open;
    close_[ci] = c.close_eps;
    service_[ci] = c.service;
    stop_[ci] = static_cast<std::uint32_t>(c.stop);
  }
  // Padding columns: window already closed (-inf) masks them out of every
  // refresh, and stop 0 gives their lane reads a real (ignored) cell.
  for (std::size_t ci = cols_; ci < stride_; ++ci) {
    leg0_[ci] = 0.0;
    open_[ci] = 0.0;
    close_[ci] = -kInf;
    service_[ci] = 0.0;
    stop_[ci] = 0;
  }
  // Row-major fill gathers each route stop's matrix row once: the same
  // cells RouteState::best_insertion reads, so lanes are exact copies.
  for (std::size_t pos = 0; pos < n; ++pos) {
    const Seconds* const row = tt.row(order[pos]);
    Seconds* const out = legs_t_.data() + pos * stride_;
    for (std::size_t ci = 0; ci < stride_; ++ci) out[ci] = row[stop_[ci]];
  }
}

void CelfFill::refresh_batch(const RouteState& route) {
  const std::size_t n = route.order().size();
  const std::size_t w = stride_;
  Seconds* const __restrict bd = best_d_.data();
  const Seconds* const __restrict open = open_.data();
  const Seconds* const __restrict close = close_.data();
  const Seconds* const __restrict service = service_.data();

  for (std::size_t ci = 0; ci < w; ++ci) bd[ci] = kInf;

  const Seconds* const depart = route.departures().data();
  const Seconds* const arrival_at = route.arrivals().data();
  const Seconds* const slack = route.slacks().data();
  const Seconds* const waitsum = route.waitsums().data();

  // Interior positions.  Per-element arithmetic is try_insert's, expression
  // for expression; ascending positions with a strict < keep the FIRST
  // minimum, exactly like the scalar scan (whose delta == 0 early break
  // only skips positions that could never displace the incumbent — deltas
  // are all >= 0).  Positions past the scalar scan's window cut fail the
  // start <= close check here, so they contribute nothing, as there.
  // Select/min chains only, stores unconditional — the exact shape GCC's
  // if-converter turns into mask/blend vector code.
  const Seconds* __restrict leg_in = leg0_.data();
  Seconds prev = route.start_time();
  for (std::size_t pos = 0; pos < n; ++pos) {
    const Seconds* const __restrict leg_out = legs_t_.data() + pos * w;
    const Seconds arr_pos = arrival_at[pos];
    const Seconds slack_pos = slack[pos];
    const Seconds wait_pos = waitsum[pos];
    for (std::size_t ci = 0; ci < w; ++ci) {
      const Seconds arrival = prev + leg_in[ci];
      const Seconds start = std::max(arrival, open[ci]);
      const Seconds delay = start + service[ci] + leg_out[ci] - arr_pos;
      const Seconds residual = delay - wait_pos;
      const Seconds delta = residual > kWindowEpsilon ? residual : 0.0;
      const Seconds d =
          (start <= close[ci]) & (delay <= slack_pos) ? delta : kInf;
      bd[ci] = d < bd[ci] ? d : bd[ci];
    }
    prev = depart[pos];
    leg_in = leg_out;
  }

  // Appending (position n): no downstream stop, so the delta is the plain
  // completion-time extension and only the candidate's own window gates it.
  // The sweep leaves leg_in at the last row (or the start legs when the
  // route is empty) and prev at the last departure — the append inputs.
  const Seconds comp = route.completion();
  for (std::size_t ci = 0; ci < w; ++ci) {
    const Seconds arrival = prev + leg_in[ci];
    const Seconds start = std::max(arrival, open[ci]);
    const Seconds delta = start + service[ci] - comp;
    const Seconds d = start <= close[ci] ? delta : kInf;
    bd[ci] = d < bd[ci] ? d : bd[ci];
  }
}

void CelfFill::push_row(const TideInstance& instance, std::size_t stop,
                        std::size_t pos, std::size_t route_len) {
  if (route_len > row_cap_) {
    row_cap_ = route_len + 64;
    legs_t_.resize(row_cap_ * stride_);
  }
  // Rows at or past the insertion point shift one slot; row-major layout
  // makes that a single contiguous move.
  std::memmove(legs_t_.data() + (pos + 1) * stride_,
               legs_t_.data() + pos * stride_,
               (route_len - 1 - pos) * stride_ * sizeof(Seconds));
  const Seconds* const row = instance.travel_matrix().row(stop);
  Seconds* const out = legs_t_.data() + pos * stride_;
  for (std::size_t ci = 0; ci < stride_; ++ci) out[ci] = row[stop_[ci]];
}

}  // namespace wrsn::csa
