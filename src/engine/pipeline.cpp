#include "engine/pipeline.hpp"

#include <string>
#include <utility>

#include "core/validate.hpp"
#include "util/timer.hpp"

namespace qbp::engine {

SolvePipeline::SolvePipeline(const PartitionProblem& problem,
                             PipelineOptions options)
    : original_(problem),
      reduced_(presolve(problem, options.presolve)),
      options_(std::move(options)) {}

bool SolvePipeline::validate() const {
  return options_.portfolio.validate.value_or(validation_enabled());
}

PipelineResult SolvePipeline::run(const Solver& solver,
                                  std::int32_t starts) const {
  const Timer timer;
  PipelineResult out;
  out.presolve = reduced_.stats;
  out.reduced = reduced();

  if (reduced_.rn_feasible) {
    // The remainder was solved exactly; running heuristic starts could only
    // tie.  Collapse the portfolio to one synthesized result (RN never reads
    // the start).
    out.rn_exact = true;
    SolverResult exact = solve_one(solver, StartPoint{});
    exact.validated = validate();
    out.portfolio.best = exact;
    out.portfolio.best_start = 0;
    if (options_.portfolio.keep_start_results) {
      out.portfolio.starts.push_back(std::move(exact));
    }
    out.portfolio.starts_run = 1;
    out.portfolio.threads_used = 1;
    if (out.portfolio.best.validated) out.portfolio.starts_validated = 1;
    out.portfolio.seconds = timer.seconds();
    out.seconds = timer.seconds();
    return out;
  }

  // The injected warm-start initial (if any) lives in original space; the
  // portfolio runs on the reduced instance, so restrict it first.
  PortfolioOptions portfolio_options = options_.portfolio;
  if (portfolio_options.initial.has_value() && reduced()) {
    portfolio_options.initial =
        reduced_.lift.restrict_to_reduced(*portfolio_options.initial);
  }
  const Portfolio portfolio(portfolio_options);
  out.portfolio = portfolio.run(reduced_.problem, solver, starts);
  if (reduced()) {
    // The portfolio audited each start against the reduced instance; lift
    // everything back and re-check it against the original.
    const double penalty = solver.penalized_with();
    lift_incumbents(original_, reduced_, out.portfolio.best, penalty,
                    validate());
    for (SolverResult& start_result : out.portfolio.starts) {
      lift_incumbents(original_, reduced_, start_result, penalty, validate());
    }
  }
  out.seconds = timer.seconds();
  return out;
}

SolverResult SolvePipeline::solve_one(const Solver& solver,
                                      const StartPoint& start) const {
  const Timer timer;
  SolverResult result = solve_presolved<SolverResult>(
      original_, reduced_, start.assignment, solver.penalized_with(),
      validate(), [&](const PartitionProblem& instance, const Assignment& at) {
        return solver.solve(instance, StartPoint{at, start.seed});
      });
  result.solver = std::string(solver.name());
  result.seconds = timer.seconds();
  return result;
}

}  // namespace qbp::engine
