// Min-conflicts timing repair.
//
// The Burkard iteration is a global line search: it drives the violation
// count down fast but -- being built from simultaneous whole-circuit GAP
// solves -- can plateau with a handful of residual violations on very tight
// constraint sets.  This utility finishes the job locally: repeatedly pick
// a component involved in a violated constraint and move it to the
// capacity-feasible partition with the fewest resulting violations
// (sideways moves allowed, random tie-breaking).  Used by make_initial as a
// fallback, by the V-cycle after each level's polish, by ECO repair, and
// available to users whose hand-made assignments need legalizing.
//
// Conflict counts are kept incrementally over an M x M worst-delay table
// max(D(a, b), D(b, a)): a move costs O(M * deg) to score every target of
// the picked component in one pass over its Dc row, plus O(deg) to update
// the counts of its timing partners.
#pragma once

#include <cstdint>

#include "core/problem.hpp"

namespace qbp {

struct RepairOptions {
  /// Move budget; -1 means 200 * N.
  std::int64_t max_moves = -1;
  /// WalkSAT-style noise: probability of moving a conflicted component to a
  /// random capacity-feasible partition instead of the min-conflict one;
  /// breaks deadlocks where every single move looks non-improving.
  double noise = 0.08;
  std::uint64_t seed = 1;
};

struct RepairResult {
  Assignment assignment;
  bool feasible = false;  // C1 and C2 both hold on exit
  std::int64_t moves = 0;
};

/// `start` must be complete and capacity-feasible; capacity stays satisfied
/// throughout (only C2 is being repaired).
[[nodiscard]] RepairResult repair_timing(const PartitionProblem& problem,
                                         const Assignment& start,
                                         const RepairOptions& options = {});

}  // namespace qbp
