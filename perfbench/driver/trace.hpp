// Benchmark-side tracing and the raw result document of one driver run.
//
// The driver records a span around each call it makes into the program
// (name, start, end, enclosing span, and the request the call served).
// Spans live in memory and are written out as JSON lines when the run
// ends; perfbench/metrics.py turns them into per-layer self times.  The
// program itself is not instrumented from here: the driver only reads the
// instruments the program already exposes (util/prof phases, the work
// pool's region counters, the server's stats reply).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.hpp"

namespace perfbench {

/// One timed call.  Times are nanoseconds since the tracer was created.
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;    // index of the enclosing span, -1 at a root
  std::int64_t request = -1;   // request / job the call served, -1 for none
};

class Tracer {
 public:
  explicit Tracer(bool enabled);

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool on) noexcept { enabled_ = on; }
  [[nodiscard]] std::int64_t now_ns() const;

  /// RAII span on the driver's thread; inert while tracing is off.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string_view name, std::int64_t request = -1);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_ = nullptr;
    std::int32_t index_ = -1;
  };

  /// A root span timed by the caller (serve jobs overlap, so they cannot
  /// nest on one stack).
  void record(std::string_view name, std::int64_t start_ns,
              std::int64_t end_ns, std::int64_t request);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] bool write_jsonl(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// Every request / solve the driver checks lands in exactly one bucket;
/// metrics.py counts everything but `ok` as failed.
struct Outcomes {
  std::int64_t ok = 0;
  std::int64_t infeasible = 0;  // finished without a feasible answer
  std::int64_t invalid = 0;     // failed from-scratch validation
  std::int64_t wrong = 0;       // differs from the reference answer
  std::int64_t rejected = 0;    // refused by the server
  std::int64_t error = 0;       // error reply or undecodable reply
  std::int64_t missing = 0;     // never answered
  /// First few failure descriptions, for the log.
  std::vector<std::string> notes;

  void fail(std::int64_t Outcomes::*bucket, std::string note);
  [[nodiscard]] qbp::json::Value to_json() const;
};

/// The serve workload's traffic mix.  No measured qbpartd request stream
/// backs these defaults; they are assumptions, and catalogue.json records
/// how far the serve figures move when each one changes.
struct ServeMix {
  std::int64_t eco_every = 16;  // every eco_every-th resubmit is an ECO variant
  std::int32_t window = 8;      // submits outstanding per resubmit connection
  std::int32_t primed = 8;      // designs cold-primed into the cache
};

/// Shared state of one driver run.
struct Run {
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  ServeMix mix;
  Tracer tracer{false};
  Outcomes outcomes;
  /// The raw document written to --out; metrics.py derives every metric.
  qbp::json::Value out = qbp::json::Value::object();
};

/// Deterministic 64-bit mix of (seed, tag): distinct workload inputs per
/// seed without correlated generator streams.
[[nodiscard]] std::uint64_t derive(std::uint64_t seed, std::uint64_t tag);

/// util/prof phase table as {"<phase>": {"seconds": s, "count": c}}.
[[nodiscard]] qbp::json::Value prof_table();

/// The shared work pool's cumulative region counters.
[[nodiscard]] qbp::json::Value pool_counters();

[[nodiscard]] qbp::json::Value to_json_array(const std::vector<double>& values);

/// Per-call samples kept apart by the half of the window they fell in, so
/// the figures of the untraced half never mix with the traced half's.
struct Samples {
  std::vector<double> plain;
  std::vector<double> traced;

  void add(bool in_traced_half, double value) {
    (in_traced_half ? traced : plain).push_back(value);
  }
  /// Writes `key` (untraced half) and `traced_<key>` into `out`.
  void write(qbp::json::Value& out, const std::string& key) const;
};

/// Peak resident set of this process in KiB.
[[nodiscard]] std::int64_t peak_rss_kib();

void run_tables(Run& run);
void run_vcycle(Run& run);
void run_threads(Run& run);
void run_serve(Run& run);

}  // namespace perfbench
