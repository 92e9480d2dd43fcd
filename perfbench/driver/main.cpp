// perfbench_driver: runs one benchmark workload against the qbpart
// libraries and writes the raw measurements as one JSON document.
//
//   perfbench_driver --workload tables|vcycle|threads|serve --seed N
//                    --seconds S --trace 0|1 --out raw.json
//                    [--spans spans.jsonl]
//                    [--eco-every K] [--window W] [--primed P]   (serve)
//
// perfbench/run.py builds and invokes it and derives every reported metric
// from the document; the driver itself prints nothing on stdout.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "trace.hpp"
#include "util/json.hpp"

namespace {

int usage(const char* message) {
  std::fprintf(stderr,
               "perfbench_driver: %s\n"
               "usage: perfbench_driver --workload tables|vcycle|threads|serve "
               "--seed N --seconds S --trace 0|1 --out FILE [--spans FILE]\n"
               "       [--eco-every K] [--window W] [--primed P]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string out_path;
  std::string spans_path;
  perfbench::Run run;
  bool have_seed = false;
  for (int k = 1; k + 1 < argc; k += 2) {
    const std::string_view flag = argv[k];
    const char* value = argv[k + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      run.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      run.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      run.trace = std::string_view(value) == "1";
    } else if (flag == "--out") {
      out_path = value;
    } else if (flag == "--spans") {
      spans_path = value;
    } else if (flag == "--eco-every") {
      run.mix.eco_every = std::strtoll(value, nullptr, 10);
    } else if (flag == "--window") {
      run.mix.window = std::atoi(value);
    } else if (flag == "--primed") {
      run.mix.primed = std::atoi(value);
    } else {
      return usage("unknown flag");
    }
  }
  if (workload.empty() || out_path.empty() || !have_seed ||
      run.seconds <= 0.0) {
    return usage("--workload, --seed, --seconds and --out are required");
  }
  if (run.mix.eco_every < 1 || run.mix.window < 1 || run.mix.primed < 1) {
    return usage("--eco-every, --window and --primed must be at least 1");
  }
  // Set-up spans (instance generation) are recorded on traced runs too.
  run.tracer.set_enabled(run.trace);

  if (workload == "tables") {
    perfbench::run_tables(run);
  } else if (workload == "vcycle") {
    perfbench::run_vcycle(run);
  } else if (workload == "threads") {
    perfbench::run_threads(run);
  } else if (workload == "serve") {
    perfbench::run_serve(run);
  } else {
    return usage("unknown workload");
  }

  run.out.set("workload", workload);
  run.out.set("seed", static_cast<std::int64_t>(run.seed));
  run.out.set("trace", run.trace);
  run.out.set("outcomes", run.outcomes.to_json());
  run.out.set("peak_rss_kib", perfbench::peak_rss_kib());
  if (!qbp::json::write_json_file(out_path, run.out)) {
    std::fprintf(stderr, "perfbench_driver: cannot write %s\n",
                 out_path.c_str());
    return 1;
  }
  if (!spans_path.empty() && !run.tracer.write_jsonl(spans_path)) {
    std::fprintf(stderr, "perfbench_driver: cannot write %s\n",
                 spans_path.c_str());
    return 1;
  }
  return 0;
}
