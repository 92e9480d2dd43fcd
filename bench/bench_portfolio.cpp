// Portfolio bench: the serial multistart loop vs. the parallel portfolio.
//
// The paper's Section 5 observation -- QBP is insensitive to its starting
// solution, so several cheap starts beat one long run -- makes multistart
// the natural outer loop.  The engine's Portfolio runs those starts on a
// thread pool with deterministic per-start RNG streams, so the chosen
// assignment is identical at every worker count while the wall clock divides
// by it (up to scheduling overhead; on an 8-core runner a 16-start portfolio
// should show >= 4x).
//
// Rows: T=n = Portfolio with n workers; T=1 is the serial loop and the
// reference.  "speedup" is T=1 / T=n wall clock; a "(DIFFERS!)" mark flags a
// broken determinism contract.
#include <cstdio>

#include <string>
#include <thread>
#include <vector>

#include "bench_support/circuits.hpp"
#include "engine/engine.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

int main() {
  constexpr std::int32_t kStarts = 16;
  constexpr std::uint64_t kSeed = 1993;
  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());

  qbp::BurkardOptions options;
  options.iterations = 40;

  std::printf("Portfolio: %d-start QBP, serial (T=1) vs parallel driver "
              "(%u hardware threads)\n\n",
              kStarts, hardware);
  qbp::TextTable table({"circuit", "mode", "wall (s)", "total work (s)",
                        "speedup", "feasible", "objective"});

  for (const char* name : {"ckta", "cktb"}) {
    const auto instance = qbp::make_circuit(*qbp::find_preset(name));
    const auto& problem = instance.problem;

    const qbp::engine::BurkardSolver solver(options);
    qbp::engine::PortfolioResult reference;
    for (const std::int32_t threads :
         {1, 2, static_cast<std::int32_t>(hardware)}) {
      qbp::engine::PortfolioOptions portfolio_options;
      portfolio_options.seed = kSeed;
      portfolio_options.threads = threads;
      portfolio_options.keep_start_results = false;
      const auto result = qbp::engine::Portfolio(portfolio_options)
                              .run(problem, solver, kStarts);
      if (threads == 1) reference = result;  // the serial loop
      const bool same = result.best.best == reference.best.best &&
                        result.best_start == reference.best_start;
      table.add_row(
          {name, "T=" + std::to_string(result.threads_used) + (same ? "" : " (DIFFERS!)"),
           qbp::format_double(result.seconds, 2),
           qbp::format_double(result.seconds_total, 2),
           qbp::format_double(reference.seconds / result.seconds, 1) + "x",
           result.best.found_feasible ? "yes" : "no",
           qbp::format_double(result.best.found_feasible
                                  ? result.best.best_feasible_objective
                                  : result.best.best_penalized,
                              1)});
    }
    std::fprintf(stderr, "  %s done\n", name);
  }

  std::printf("%s\n", table.render().c_str());
  std::printf("expected shape: every row of one circuit reaches the same "
              "solution (determinism contract); T=n divides the T=1\n"
              "wall clock by ~n until n exceeds the "
              "core count or K/n leaves the pool underfed.\n");
  return 0;
}
