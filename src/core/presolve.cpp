#include "core/presolve.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <utility>

#include "core/brute_force.hpp"
#include "core/qhat.hpp"
#include "util/check.hpp"
#include "util/flat_map.hpp"
#include "util/prof.hpp"
#include "util/strings.hpp"
#include "util/timer.hpp"

namespace qbp {

namespace {

/// Mutable working state of one reduction run.  Everything is indexed by
/// ORIGINAL component id; removed components are simply marked dead and
/// their rows cleared, so the rule scans never renumber mid-run.
struct Reducer {
  const PartitionProblem& problem;
  const PresolveOptions& options;
  std::int32_t n = 0;
  std::int32_t m = 0;

  std::vector<double> sizes;              // aggregated by R2 merges
  std::vector<char> alive;
  std::vector<char> r1_blocked;           // carries a discharged timing bound
  std::vector<PartitionId> fixed_at;      // R0 result, -1 while free
  // Sparse symmetric wire weights among free components (both directions
  // stored, like Netlist's connection matrix).  int64: merged multiplicities
  // can exceed a single bundle's int32 range before the rebuild checks.
  std::vector<FlatMap<std::int32_t, std::int64_t>> adj;
  // Sparse symmetric timing bounds among free components.
  std::vector<FlatMap<std::int32_t, double>> tc;
  Matrix<double> p;                       // m x n working linear costs
  bool emit_p = false;                    // reduced problem needs a P matrix
  std::vector<double> cap;                // capacities minus forced occupancy
  double reserved = 0.0;                  // R1 everywhere-reservation total
  // A timing bound forces co-location iff it is below this (see R2): the
  // tightest bound any pair of distinct partitions can satisfy.
  double min_separable_bound = std::numeric_limits<double>::infinity();
  bool zero_delay_diagonal = true;
  double offset = 0.0;

  PresolveStats stats;
  std::vector<LiftAction> actions;

  Reducer(const PartitionProblem& prob, const PresolveOptions& opts)
      : problem(prob), options(opts) {
    n = problem.num_components();
    m = problem.num_partitions();
    sizes = problem.netlist().sizes();
    alive.assign(static_cast<std::size_t>(n), 1);
    r1_blocked.assign(static_cast<std::size_t>(n), 0);
    fixed_at.assign(static_cast<std::size_t>(n), -1);

    adj.resize(static_cast<std::size_t>(n));
    const auto& a = problem.netlist().connection_matrix();
    for (std::int32_t j = 0; j < n; ++j) {
      const auto cols = a.row_indices(j);
      const auto vals = a.row_values(j);
      adj[static_cast<std::size_t>(j)].reserve(cols.size());
      for (std::size_t e = 0; e < cols.size(); ++e) {
        adj[static_cast<std::size_t>(j)][cols[e]] = vals[e];
      }
    }

    tc.resize(static_cast<std::size_t>(n));
    if (problem.timing().num_components() > 0) {
      for (std::int32_t j = 0; j < n; ++j) {
        const auto partners = problem.timing().partners(j);
        const auto bounds = problem.timing().bounds(j);
        tc[static_cast<std::size_t>(j)].reserve(partners.size());
        for (std::size_t e = 0; e < partners.size(); ++e) {
          tc[static_cast<std::size_t>(j)][partners[e]] = bounds[e];
        }
      }
    }

    p = Matrix<double>(m, n, 0.0);
    const Matrix<double>& original_p = problem.linear_cost_matrix();
    if (!original_p.empty()) {
      emit_p = true;
      for (PartitionId i = 0; i < m; ++i) {
        for (std::int32_t j = 0; j < n; ++j) p(i, j) = original_p(i, j);
      }
    }

    cap = problem.topology().capacities();
    const auto& d = problem.topology().delay();
    for (PartitionId i1 = 0; i1 < m; ++i1) {
      if (d(i1, i1) != 0.0) zero_delay_diagonal = false;
      for (PartitionId i2 = 0; i2 < m; ++i2) {
        if (i1 == i2) continue;
        // A pair (i1, i2) satisfies a bound b iff both directions do.
        min_separable_bound =
            std::min(min_separable_bound, std::max(d(i1, i2), d(i2, i1)));
      }
    }
  }

  [[nodiscard]] bool fits(std::int32_t j, PartitionId i) const noexcept {
    return sizes[static_cast<std::size_t>(j)] <=
           cap[static_cast<std::size_t>(i)] + CapacityLedger::kTolerance;
  }

  /// The timing bound between fixed partition q and any capacity-feasible
  /// placement of free component t never binds (checked in both delay
  /// directions, mirroring TimingConstraints::violations).
  [[nodiscard]] bool vacuous_for(PartitionId q, std::int32_t t,
                                 double bound) const {
    const auto& d = problem.topology().delay();
    for (PartitionId i = 0; i < m; ++i) {
      if (!fits(t, i)) continue;
      if (d(q, i) > bound || d(i, q) > bound) return false;
    }
    return true;
  }

  void push_merge(std::int32_t gone, std::int32_t rep) {
    LiftAction action;
    action.kind = LiftAction::Kind::kMerge;
    action.component = gone;
    action.other = rep;
    actions.push_back(std::move(action));
    ++stats.r2;
    ++stats.components_removed;
  }

  /// Merge `gone` into representative `rep` (forced co-location).
  void merge(std::int32_t rep, std::int32_t gone) {
    push_merge(gone, rep);
    alive[static_cast<std::size_t>(gone)] = 0;
    sizes[static_cast<std::size_t>(rep)] += sizes[static_cast<std::size_t>(gone)];
    r1_blocked[static_cast<std::size_t>(rep)] =
        static_cast<char>(r1_blocked[static_cast<std::size_t>(rep)] |
                          r1_blocked[static_cast<std::size_t>(gone)]);

    const auto& b = problem.topology().wire_cost();
    for (const auto& [t, w] : adj[static_cast<std::size_t>(gone)]) {
      adj[static_cast<std::size_t>(t)].erase(gone);
      if (t == rep) {
        // Intra-pair wires cost w * (B(i, i) + B(i, i)) when co-located at i
        // (the objective's ordered double sum visits the bundle twice) --
        // zero for validated topologies, folded into the column otherwise.
        for (PartitionId i = 0; i < m; ++i) {
          if (b(i, i) != 0.0) {
            p(i, rep) += static_cast<double>(w) * (b(i, i) + b(i, i));
            emit_p = true;
          }
        }
        continue;
      }
      adj[static_cast<std::size_t>(rep)][t] += w;
      adj[static_cast<std::size_t>(t)][rep] += w;
    }
    adj[static_cast<std::size_t>(gone)].clear();

    for (const auto& [t, bound] : tc[static_cast<std::size_t>(gone)]) {
      tc[static_cast<std::size_t>(t)].erase(gone);
      if (t == rep) continue;  // the pair's own bound: D(i, i) = 0 <= bound
      auto tighten = [bound](FlatMap<std::int32_t, double>& row,
                             std::int32_t key) {
        if (double* existing = row.find(key)) {
          *existing = std::min(*existing, bound);
        } else {
          row[key] = bound;
        }
      };
      tighten(tc[static_cast<std::size_t>(rep)], t);
      tighten(tc[static_cast<std::size_t>(t)], rep);
    }
    tc[static_cast<std::size_t>(gone)].clear();

    for (PartitionId i = 0; i < m; ++i) p(i, rep) += p(i, gone);
  }

  /// One R2 scan: find and apply the first forced co-location, restarting
  /// until none remains.  Merges are rare, so the rescan is cheap.
  bool run_r2() {
    if (!zero_delay_diagonal) return false;  // co-location cost not constant
    bool changed = false;
    bool found = true;
    while (found) {
      found = false;
      for (std::int32_t j = 0; j < n && !found; ++j) {
        if (!alive[static_cast<std::size_t>(j)]) continue;
        for (const auto& [k, bound] : tc[static_cast<std::size_t>(j)]) {
          if (k <= j) continue;
          if (bound >= min_separable_bound) continue;
          merge(j, k);
          changed = true;
          found = true;
          break;
        }
      }
    }
    return changed;
  }

  /// Fix `j` at `q`: fold its costs and charge its size.  Preconditions:
  /// q is capacity-feasible and every timing bound of j is vacuous.
  void fix(std::int32_t j, PartitionId q) {
    offset += p(q, j);
    const auto& b = problem.topology().wire_cost();
    for (const auto& [t, w] : adj[static_cast<std::size_t>(j)]) {
      adj[static_cast<std::size_t>(t)].erase(j);
      // The objective's ordered double sum counts the (j, t) bundle in both
      // directions, so the fold must too.
      for (PartitionId i = 0; i < m; ++i) {
        p(i, t) += static_cast<double>(w) * (b(q, i) + b(i, q));
      }
      emit_p = true;
    }
    adj[static_cast<std::size_t>(j)].clear();
    for (const auto& [t, bound] : tc[static_cast<std::size_t>(j)]) {
      (void)bound;
      tc[static_cast<std::size_t>(t)].erase(j);
      // The bound was vacuous over t's capacity-feasible set, so it is
      // dropped from the reduced instance -- but t may no longer be
      // R1-eliminated: R1's lift places its component by cost alone, and
      // only capacity-feasible placements are covered by the vacuity proof.
      r1_blocked[static_cast<std::size_t>(t)] = 1;
    }
    tc[static_cast<std::size_t>(j)].clear();
    cap[static_cast<std::size_t>(q)] -= sizes[static_cast<std::size_t>(j)];
    QBP_CHECK(cap[static_cast<std::size_t>(q)] >= -CapacityLedger::kTolerance)
        << "presolve R0 overfilled partition " << q;
    alive[static_cast<std::size_t>(j)] = 0;
    fixed_at[static_cast<std::size_t>(j)] = q;

    LiftAction action;
    action.kind = LiftAction::Kind::kFix;
    action.component = j;
    action.partition = q;
    actions.push_back(std::move(action));
    ++stats.r0;
    ++stats.components_removed;
  }

  bool run_r0() {
    bool changed = false;
    for (std::int32_t j = 0; j < n; ++j) {
      if (!alive[static_cast<std::size_t>(j)]) continue;
      std::int32_t fits_count = 0;
      PartitionId q = -1;
      for (PartitionId i = 0; i < m; ++i) {
        if (!fits(j, i)) continue;
        ++fits_count;
        if (fits_count > 1) break;
        q = i;
      }
      if (fits_count == 0) {
        stats.proven_infeasible = true;
        return changed;
      }
      if (fits_count > 1) continue;
      // Singleton {q}: fixable only when every timing bound against a free
      // partner is vacuous wherever that partner can still go; otherwise
      // defer -- the partner may itself become forced in a later pass.
      bool all_vacuous = true;
      for (const auto& [t, bound] : tc[static_cast<std::size_t>(j)]) {
        if (!vacuous_for(q, t, bound)) {
          all_vacuous = false;
          break;
        }
      }
      if (!all_vacuous) continue;
      fix(j, q);
      changed = true;
    }
    return changed;
  }

  bool run_r1() {
    bool changed = false;
    const auto& b = problem.topology().wire_cost();
    for (std::int32_t j = 0; j < n; ++j) {
      if (!alive[static_cast<std::size_t>(j)]) continue;
      if (r1_blocked[static_cast<std::size_t>(j)]) continue;
      if (!tc[static_cast<std::size_t>(j)].empty()) continue;
      if (adj[static_cast<std::size_t>(j)].size() > 1) continue;
      const double min_cap = *std::min_element(cap.begin(), cap.end());
      const double size = sizes[static_cast<std::size_t>(j)];
      if (size > options.r1_max_size_fraction * min_cap) continue;
      if (reserved + size > options.r1_max_reserve_fraction * min_cap) continue;

      LiftAction action;
      action.kind = LiftAction::Kind::kEliminate;
      action.component = j;
      if (adj[static_cast<std::size_t>(j)].empty()) {
        // Degree 0: the whole column is a constant choice.
        PartitionId best_i = 0;
        double best = p(0, j);
        for (PartitionId i = 1; i < m; ++i) {
          if (p(i, j) < best) {
            best = p(i, j);
            best_i = i;
          }
        }
        offset += best;
        action.other = -1;
        action.response.push_back(best_i);
      } else {
        const auto [k, w] = *adj[static_cast<std::size_t>(j)].begin();
        action.other = k;
        action.response.resize(static_cast<std::size_t>(m));
        // Both wire-cost directions, matching the objective's ordered sum.
        for (PartitionId ik = 0; ik < m; ++ik) {
          PartitionId best_i = 0;
          double best =
              p(0, j) + static_cast<double>(w) * (b(0, ik) + b(ik, 0));
          for (PartitionId i = 1; i < m; ++i) {
            const double cost =
                p(i, j) + static_cast<double>(w) * (b(i, ik) + b(ik, i));
            if (cost < best) {
              best = cost;
              best_i = i;
            }
          }
          action.response[static_cast<std::size_t>(ik)] = best_i;
          p(ik, k) += best;
        }
        emit_p = true;
        adj[static_cast<std::size_t>(k)].erase(j);
        adj[static_cast<std::size_t>(j)].clear();
      }
      reserved += size;
      alive[static_cast<std::size_t>(j)] = 0;
      actions.push_back(std::move(action));
      ++stats.r1;
      ++stats.components_removed;
      changed = true;
    }
    return changed;
  }

  void run() {
    while (stats.passes < options.max_passes) {
      ++stats.passes;
      bool changed = false;
      if (options.rule_r2) changed = run_r2() || changed;
      if (stats.proven_infeasible) return;
      if (options.rule_r0) changed = run_r0() || changed;
      if (stats.proven_infeasible) return;
      if (options.rule_r1) changed = run_r1() || changed;
      if (!changed) return;
    }
  }

  /// Rebuild a dense PP(1,1) instance over the surviving components.
  [[nodiscard]] PartitionProblem build_reduced(
      const std::vector<std::int32_t>& order) const {
    const auto n_free = static_cast<std::int32_t>(order.size());
    std::vector<std::int32_t> red_of(static_cast<std::size_t>(n), -1);
    for (std::int32_t r = 0; r < n_free; ++r) {
      red_of[static_cast<std::size_t>(order[static_cast<std::size_t>(r)])] = r;
    }

    Netlist netlist(problem.netlist().name());
    for (const std::int32_t j : order) {
      netlist.add_component(problem.netlist().component(j).name,
                            sizes[static_cast<std::size_t>(j)]);
    }
    for (const std::int32_t j : order) {
      for (const auto& [t, w] : adj[static_cast<std::size_t>(j)]) {
        if (t <= j) continue;
        QBP_CHECK(w > 0 && w <= std::numeric_limits<std::int32_t>::max())
            << "merged wire multiplicity out of range: " << w;
        netlist.add_wires(red_of[static_cast<std::size_t>(j)],
                          red_of[static_cast<std::size_t>(t)],
                          static_cast<std::int32_t>(w));
      }
    }

    PartitionTopology topology = problem.topology();
    {
      std::vector<double> capacities = cap;
      for (double& c : capacities) c -= reserved;
      topology.set_capacities(std::move(capacities));
    }

    TimingConstraints timing(n_free);
    for (const std::int32_t j : order) {
      for (const auto& [t, bound] : tc[static_cast<std::size_t>(j)]) {
        if (t <= j) continue;
        timing.add(red_of[static_cast<std::size_t>(j)],
                   red_of[static_cast<std::size_t>(t)], bound);
      }
    }

    Matrix<double> reduced_p;
    if (emit_p) {
      reduced_p = Matrix<double>(m, n_free);
      for (PartitionId i = 0; i < m; ++i) {
        for (std::int32_t r = 0; r < n_free; ++r) {
          reduced_p(i, r) = p(i, order[static_cast<std::size_t>(r)]);
        }
      }
    }

    return PartitionProblem(std::move(netlist), std::move(topology),
                            std::move(timing), std::move(reduced_p));
  }
};

void publish_counters(const PresolveStats& stats) {
  if (!prof::enabled()) return;
  static const prof::PhaseId kR0 = prof::register_phase("presolve.r0");
  static const prof::PhaseId kR1 = prof::register_phase("presolve.r1");
  static const prof::PhaseId kR2 = prof::register_phase("presolve.r2");
  static const prof::PhaseId kRn = prof::register_phase("presolve.rn");
  static const prof::PhaseId kRemoved =
      prof::register_phase("presolve.components_removed");
  prof::record_events(kR0, stats.r0);
  prof::record_events(kR1, stats.r1);
  prof::record_events(kR2, stats.r2);
  prof::record_events(kRn, stats.rn);
  prof::record_events(kRemoved, stats.components_removed);
}

}  // namespace

bool parse_presolve_rules(std::string_view rules, PresolveOptions& options,
                          std::string& error) {
  PresolveOptions parsed = options;
  parsed.rule_r0 = parsed.rule_r1 = parsed.rule_r2 = parsed.rule_rn = false;
  for (const std::string_view token : split(rules, ',')) {
    const std::string_view rule = trim(token);
    if (rule.empty()) continue;
    bool* flag = rule == "r0"   ? &parsed.rule_r0
                 : rule == "r1" ? &parsed.rule_r1
                 : rule == "r2" ? &parsed.rule_r2
                 : rule == "rn" ? &parsed.rule_rn
                                : nullptr;
    if (flag == nullptr) {
      error = "unknown presolve rule '" + std::string(rule) +
              "' (rules: r0,r1,r2,rn)";
      return false;
    }
    *flag = true;
  }
  options = parsed;
  return true;
}

Assignment SolutionLift::lift(const Assignment& reduced) const {
  QBP_CHECK_EQ(reduced.num_components(),
               static_cast<std::int32_t>(orig_of.size()))
      << "lift expects an assignment of the reduced instance";
  QBP_CHECK(reduced.is_complete()) << "lift expects a complete assignment";
  Assignment original(num_original, num_partitions);
  for (std::size_t r = 0; r < orig_of.size(); ++r) {
    original.set(orig_of[r], reduced[static_cast<std::int32_t>(r)]);
  }
  // Reverse replay: an action's referenced component (`other`) was removed
  // only by a *later* action, so it is always placed first.
  for (auto it = actions.rbegin(); it != actions.rend(); ++it) {
    const LiftAction& action = *it;
    switch (action.kind) {
      case LiftAction::Kind::kFix:
        original.set(action.component, action.partition);
        break;
      case LiftAction::Kind::kMerge: {
        const PartitionId at = original[action.other];
        QBP_CHECK(at != Assignment::kUnassigned)
            << "lift: merge representative " << action.other
            << " placed after member " << action.component;
        original.set(action.component, at);
        break;
      }
      case LiftAction::Kind::kEliminate: {
        if (action.other < 0) {
          original.set(action.component, action.response.front());
          break;
        }
        const PartitionId at = original[action.other];
        QBP_CHECK(at != Assignment::kUnassigned)
            << "lift: neighbor " << action.other << " placed after eliminated "
            << action.component;
        original.set(action.component,
                     action.response[static_cast<std::size_t>(at)]);
        break;
      }
    }
  }
  QBP_CHECK(original.is_complete()) << "lift must place every component";
  return original;
}

Assignment SolutionLift::restrict_to_reduced(const Assignment& original) const {
  QBP_CHECK_EQ(original.num_components(), num_original);
  Assignment reduced(static_cast<std::int32_t>(orig_of.size()), num_partitions);
  for (std::size_t r = 0; r < orig_of.size(); ++r) {
    reduced.set(static_cast<std::int32_t>(r), original[orig_of[r]]);
  }
  return reduced;
}

ReducedProblem presolve(const PartitionProblem& problem,
                        const PresolveOptions& options) {
  QBP_PROF_SCOPE("presolve.seconds");
  const Timer timer;

  ReducedProblem out;
  out.lift.num_original = problem.num_components();
  out.lift.num_partitions = problem.num_partitions();

  if (!options.enabled) {
    out.problem = problem;
    out.lift.orig_of.resize(static_cast<std::size_t>(problem.num_components()));
    for (std::int32_t j = 0; j < problem.num_components(); ++j) {
      out.lift.orig_of[static_cast<std::size_t>(j)] = j;
    }
    return out;
  }

  // The rules fold costs into linear columns, which assumes PP(1,1); the
  // folded form has the same objective values.
  std::optional<PartitionProblem> folded;
  if (problem.alpha() != 1.0 || problem.beta() != 1.0) {
    folded = problem.normalized();
  }
  Reducer reducer(folded ? *folded : problem, options);
  reducer.run();
  out.stats = reducer.stats;

  if (reducer.stats.proven_infeasible || reducer.actions.empty()) {
    // Identity: hand the caller an unmodified copy so a solver run on it is
    // bit-identical to a run on the input.  (A proven-infeasible instance
    // also takes this path: the solver reports infeasibility the same way
    // it would without presolve.)
    out.problem = problem;
    out.lift.orig_of.resize(static_cast<std::size_t>(problem.num_components()));
    for (std::int32_t j = 0; j < problem.num_components(); ++j) {
      out.lift.orig_of[static_cast<std::size_t>(j)] = j;
    }
  } else {
    out.lift.objective_offset = reducer.offset;
    out.lift.actions = std::move(reducer.actions);
    for (std::int32_t j = 0; j < reducer.n; ++j) {
      if (reducer.alive[static_cast<std::size_t>(j)]) {
        out.lift.orig_of.push_back(j);
      }
    }
    out.problem = reducer.build_reduced(out.lift.orig_of);
  }

  // RN: brute-force tiny remainders (including tiny *identity* instances --
  // an exact answer is always at least as good as a heuristic one).
  const auto n_free = static_cast<std::int32_t>(out.lift.orig_of.size());
  if (options.rule_rn && !out.stats.proven_infeasible &&
      n_free <= options.rn_max_components && n_free > 0) {
    const double enumerations =
        std::pow(static_cast<double>(problem.num_partitions()),
                 static_cast<double>(n_free));
    if (enumerations <= static_cast<double>(1 << 22)) {
      const BruteForceResult exact = brute_force_constrained(out.problem);
      out.rn_solved = true;
      out.rn_feasible = exact.found;
      if (exact.found) {
        out.rn_assignment = exact.best;
        out.rn_objective = exact.value;
        out.stats.rn = n_free;
      }
    }
  }

  out.stats.seconds = timer.seconds();
  publish_counters(out.stats);
  return out;
}

void lift_incumbents(const PartitionProblem& original,
                     const ReducedProblem& reduced, Incumbents& result,
                     double penalty, bool validate) {
  const SolutionLift& lift = reduced.lift;
  if (result.best.num_components() !=
      static_cast<std::int32_t>(lift.orig_of.size())) {
    return;
  }
  result.best = lift.lift(result.best);
  result.best_penalized =
      QhatMatrix(original, penalty).penalized_value(result.best);
  if (result.found_feasible) {
    result.best_feasible = lift.lift(result.best_feasible);
    result.best_feasible_objective += lift.objective_offset;
  }
  for (double& incumbent : result.history) incumbent += lift.objective_offset;
  if (validate) {
    ValidateOptions validate_options;
    validate_options.penalty = penalty;
    enforce(validate_outcome(original, ReportedOutcome::of(result),
                             validate_options),
            "presolve.lift");
  }
}

}  // namespace qbp
