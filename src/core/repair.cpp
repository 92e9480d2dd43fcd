#include "core/repair.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <vector>

#include "core/validate.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace qbp {

namespace {

/// 0/1 membership over component ids with O(log n) update and O(log n)
/// select-kth (Fenwick tree).  Selecting the k-th smallest member id is
/// index-compatible with scanning components in ascending order, so the
/// min-conflicts loop below draws the same component the old full-rescan
/// implementation drew -- bit-identical walks, O(n) less work per move.
class ConflictedSet {
 public:
  explicit ConflictedSet(std::int32_t n)
      : member_(static_cast<std::size_t>(n), 0),
        tree_(static_cast<std::size_t>(n) + 1, 0) {}

  void set(std::int32_t id, bool member) {
    const auto slot = static_cast<std::size_t>(id);
    if (static_cast<bool>(member_[slot]) == member) return;
    member_[slot] = member ? 1 : 0;
    const std::int32_t delta = member ? 1 : -1;
    for (std::size_t i = slot + 1; i < tree_.size(); i += i & (~i + 1)) {
      tree_[i] += delta;
    }
    count_ += delta;
  }

  [[nodiscard]] std::int64_t count() const noexcept { return count_; }

  /// Id of the k-th smallest member (0-based; requires k < count()).
  [[nodiscard]] std::int32_t select(std::int64_t k) const {
    std::size_t pos = 0;
    std::int64_t remaining = k + 1;
    for (std::size_t mask = std::bit_floor(tree_.size() - 1); mask > 0;
         mask >>= 1) {
      const std::size_t next = pos + mask;
      if (next < tree_.size() && tree_[next] < remaining) {
        pos = next;
        remaining -= tree_[next];
      }
    }
    return static_cast<std::int32_t>(pos);
  }

 private:
  std::vector<char> member_;
  std::vector<std::int32_t> tree_;
  std::int64_t count_ = 0;
};

}  // namespace

RepairResult repair_timing(const PartitionProblem& problem,
                           const Assignment& start, const RepairOptions& options) {
  QBP_CHECK(start.is_complete()) << "repair requires a complete assignment";
  const std::int32_t n = problem.num_components();
  const std::int32_t m = problem.num_partitions();
  const auto& sizes = problem.netlist().sizes();
  const TimingConstraints& timing = problem.timing();

  RepairResult result;
  result.assignment = start;
  Assignment& assignment = result.assignment;
  CapacityLedger ledger(assignment, sizes, problem.topology().capacities());
  Rng rng(options.seed);

  const std::int64_t budget =
      options.max_moves >= 0 ? options.max_moves
                             : 200 * static_cast<std::int64_t>(n);

  // worst(a, o) = max(D(a, o), D(o, a)): a constraint (j, p, bound) is
  // violated iff worst(A(j), A(p)) > bound.  fmax drops a NaN delay the way
  // the two-sided `D > bound` test does.  The table is symmetric, so
  // worst.row(o) scores every target of a component against a partner in o.
  Matrix<double> worst(m, m);
  for (PartitionId a = 0; a < m; ++a) {
    for (PartitionId o = 0; o < m; ++o) {
      worst(a, o) = std::fmax(problem.topology().delay(a, o),
                              problem.topology().delay(o, a));
    }
  }

  // Conflict counts are maintained incrementally.  Dc stores each unordered
  // pair once in each direction with the same bound, so when j moves a -> b
  // one pass over j's partners yields j's new count and, for each partner p
  // in o, the constraint's flip worst(a, o) > bound vs worst(b, o) > bound --
  // the only change to p's count.  O(total Dc entries) here, O(deg) per move.
  const auto count_from_scratch = [&](std::int32_t j) {
    const auto partners = timing.partners(j);
    const auto bounds = timing.bounds(j);
    const auto row = worst.row(assignment[j]);
    std::int32_t conflicts = 0;
    for (std::size_t k = 0; k < partners.size(); ++k) {
      const auto o = static_cast<std::size_t>(assignment[partners[k]]);
      conflicts += row[o] > bounds[k];
    }
    return conflicts;
  };
  std::vector<std::int32_t> conflict_count(static_cast<std::size_t>(n), 0);
  ConflictedSet conflicted(n);
  for (std::int32_t j = 0; j < n; ++j) {
    conflict_count[static_cast<std::size_t>(j)] = count_from_scratch(j);
    conflicted.set(j, conflict_count[static_cast<std::size_t>(j)] > 0);
  }

  std::vector<std::int32_t> target_conflicts(static_cast<std::size_t>(m));
  std::vector<PartitionId> best_targets;
  while (result.moves < budget) {
    if (conflicted.count() == 0) break;

    const std::int32_t j =
        conflicted.select(static_cast<std::int64_t>(rng.next_below(
            static_cast<std::uint64_t>(conflicted.count()))));
    const PartitionId current = assignment[j];
    const double size = sizes[static_cast<std::size_t>(j)];
    const auto partners = timing.partners(j);
    const auto bounds = timing.bounds(j);

    // Best capacity-feasible target by conflict count (<= current; sideways
    // allowed so the walk can escape plateaus), random tie-break.  With
    // probability `noise` take any capacity-feasible target instead.  One
    // pass over j's partners scores all M targets: O(M * deg).
    best_targets.clear();
    if (rng.next_bool(options.noise)) {
      for (PartitionId i = 0; i < m; ++i) {
        if (i != current && ledger.fits(i, size)) best_targets.push_back(i);
      }
    } else {
      std::fill(target_conflicts.begin(), target_conflicts.end(), 0);
      for (std::size_t k = 0; k < partners.size(); ++k) {
        const auto row = worst.row(assignment[partners[k]]);
        for (std::size_t i = 0; i < row.size(); ++i) {
          target_conflicts[i] += row[i] > bounds[k];
        }
      }
      std::int32_t best_conflicts = conflict_count[static_cast<std::size_t>(j)];
      for (PartitionId i = 0; i < m; ++i) {
        if (i == current || !ledger.fits(i, size)) continue;
        const std::int32_t conflicts =
            target_conflicts[static_cast<std::size_t>(i)];
        if (conflicts < best_conflicts) {
          best_conflicts = conflicts;
          best_targets.assign(1, i);
        } else if (conflicts == best_conflicts) {
          best_targets.push_back(i);
        }
      }
    }
    if (best_targets.empty()) {
      ++result.moves;  // stuck on this component this round; try another
      continue;
    }
    const PartitionId target = best_targets[rng.pick_index(best_targets)];
    ledger.remove(current, size);
    ledger.add(target, size);
    assignment.set(j, target);
    ++result.moves;

    const auto from_row = worst.row(current);
    const auto to_row = worst.row(target);
    std::int32_t own = 0;
    for (std::size_t k = 0; k < partners.size(); ++k) {
      const std::int32_t p = partners[k];
      const auto o = static_cast<std::size_t>(assignment[p]);
      const bool was = from_row[o] > bounds[k];
      const bool now = to_row[o] > bounds[k];
      own += now;
      if (was != now) {
        std::int32_t& count = conflict_count[static_cast<std::size_t>(p)];
        count += now ? 1 : -1;
        conflicted.set(p, count > 0);
      }
    }
    conflict_count[static_cast<std::size_t>(j)] = own;
    conflicted.set(j, own > 0);
  }

  const bool timing_ok = problem.satisfies_timing(assignment);
  if (validation_enabled()) {
    // Shadow check of the incrementally kept counts against a recount.
    for (std::int32_t j = 0; j < n; ++j) {
      QBP_CHECK_EQ(count_from_scratch(j),
                   conflict_count[static_cast<std::size_t>(j)])
          << "repair conflict count of component " << j << " drifted";
    }
    QBP_CHECK_EQ(conflicted.count() == 0, timing_ok)
        << "repair conflicted set disagrees with the C2 check";
  }
  result.feasible = problem.satisfies_capacity(assignment) && timing_ok;
  return result;
}

}  // namespace qbp
