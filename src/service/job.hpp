// One accepted partitioning job: the parsed submit request plus the
// server-side state that travels with it through the queue and the worker
// pool -- arrival sequence number, deadline clock, the per-job stop source
// (fired by the deadline watchdog or a cancel request), and the connection
// that submitted it, which its result goes back to.
//
// Job execution (`run_job`) is a pure function of (problem text, solver
// spec, stop token): it parses the problem via core/problem_io, builds the
// engine solver named by the spec, and runs one deterministic
// engine::Portfolio.  Determinism: same spec + seed => bit-identical
// assignment for any thread/worker count (the Portfolio contract), so a
// load-shedding retry against a different server instance reproduces the
// original answer exactly.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <stop_token>
#include <string>

#include "service/protocol.hpp"

namespace qbp::service {

class Connection;  // service/server.hpp

/// Why a job's stop source fired; decides the reported status.
enum class StopCause : int { kNone = 0, kDeadline = 1, kCancel = 2 };

struct Job {
  using Clock = std::chrono::steady_clock;

  std::string id;
  std::int64_t seq = 0;       // arrival order; FIFO tie-break within priority
  std::int32_t priority = 0;  // higher first
  SolverSpec solver;
  std::string problem_text;
  /// Pre-parsed problem from a binary kProblemStruct submit
  /// (service/wire.hpp); when set, run_job skips the text parse entirely.
  /// Value-identical to parsing problem_text, so cache fingerprints and
  /// results are bit-identical across framings.
  std::shared_ptr<const PartitionProblem> problem;
  /// Request-level cache opt-outs (protocol "cache"/"warm_start" fields).
  bool use_cache = true;
  bool warm_start = true;

  Clock::time_point submitted_at{};
  Clock::time_point deadline{Clock::time_point::max()};
  bool has_deadline = false;

  /// Shared with the cancel registry and the deadline watchdog.
  std::shared_ptr<std::stop_source> stop;
  std::shared_ptr<std::atomic<int>> stop_cause;  // StopCause as int
  /// The submitting connection; holding it keeps its fd open until the
  /// result has been sent (service/server.hpp Connection).
  std::shared_ptr<Connection> reply_to;

  void fire_stop(StopCause cause) const {
    if (stop == nullptr) return;
    int expected = static_cast<int>(StopCause::kNone);
    stop_cause->compare_exchange_strong(expected, static_cast<int>(cause));
    stop->request_stop();
  }
  [[nodiscard]] StopCause cause() const noexcept {
    return stop_cause == nullptr
               ? StopCause::kNone
               : static_cast<StopCause>(stop_cause->load());
  }
};

class SolutionCache;  // service/cache.hpp

/// Solve `job` to completion (or until its stop token fires) and return the
/// normalized result.  Never throws across this boundary: problem parse
/// failures and unknown solver names come back as status "error".
/// `queue_wait_s` is stamped by the caller (the worker knows when the job
/// left the queue).
///
/// With a cache (and the job opted in), the flow is: exact fingerprint hit
/// -> return the stored result bit-identical (`cache_hit`); structurally
/// compatible neighbor within the edit budget -> ECO warm re-solve
/// (service/eco.hpp), shadow-validated from scratch against the *submitted*
/// problem (`warm_start`); otherwise -- or when the warm result fails
/// validation -- a cold solve, whose "ok" result is inserted for next time.
[[nodiscard]] JobResult run_job(const Job& job, SolutionCache* cache);

/// Cache-free overload: identical to pre-cache behaviour.
[[nodiscard]] JobResult run_job(const Job& job);

}  // namespace qbp::service
