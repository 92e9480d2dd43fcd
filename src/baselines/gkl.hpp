// GKL: generalized Kernighan-Lin baseline (paper Section 5).
//
// "The second one is a generalization of Kernighan & Lin's heuristic --
// GKL, switching a pair of components at a time.  Associated with each
// component are (N - 1) gain entries, each entry representing the potential
// gain if that component is switched with the corresponding component."
//
// Each outer loop is a KL pass: starting from all components unlocked,
// repeatedly apply the best feasible pairwise swap over *all* unlocked
// pairs (full (N - 1)-entry gain semantics, hence the heavy CPU time the
// paper reports), lock both components, and at the end roll back to the
// best prefix.  Swaps are only allowed when they keep capacity and timing
// constraints satisfied.  The paper terminates "after the first 6 outer
// loops due to excessive CPU runtime. Since any gain obtained beyond the
// first 6 outer loops is insignificant, this cutoff strategy provides
// speedup without sacrificing solution quality" -- max_outer_loops = 6.
//
// Swap gains are O(1) from the shared DeltaEvaluator's cached incident-cost
// rows (cost of j's incident wires if j sat in partition i), which every
// applied or rolled-back swap shifts in place in O(degree * M).
#pragma once

#include <cstdint>
#include <functional>

#include "core/problem.hpp"

namespace qbp {

struct GklOptions {
  /// The paper's cutoff.
  std::int32_t max_outer_loops = 6;
  /// Cap on swaps inside one pass (<= N/2 by locking); -1 = no extra cap.
  std::int64_t max_swaps_per_pass = -1;
  /// Stop a pass early after this many consecutive swaps without improving
  /// the pass's best prefix; -1 disables (fully faithful, slowest).
  std::int64_t stale_window = -1;
  double min_improvement = 1e-9;
  /// Cooperative cancellation hook, checked between outer loops.  Empty
  /// means never stop.
  std::function<bool()> should_stop;
};

struct GklResult {
  Assignment assignment;
  double objective = 0.0;
  std::int32_t outer_loops = 0;
  std::int64_t swaps_applied = 0;
  std::int64_t swaps_kept = 0;
  double seconds = 0.0;
};

/// `initial` must be complete and feasible (C1 and C2).
[[nodiscard]] GklResult solve_gkl(const PartitionProblem& problem,
                                  const Assignment& initial,
                                  const GklOptions& options = {});

}  // namespace qbp
