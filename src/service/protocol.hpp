// The qbpartd wire protocol: newline-delimited JSON, one request or
// response object per line, over a stdin/stdout pipe or a local TCP
// connection.
//
// Requests (client -> server):
//
//   {"type":"submit","id":"j1","problem":"<.qp text>","solver":{"method":
//    "qbp","starts":4,"threads":2,"iterations":100,"seed":1},
//    "deadline_ms":5000,"priority":1}
//   {"type":"submit","id":"j2","problem_file":"path/to/problem.qp", ...}
//   {"type":"cancel","id":"j1"}
//   {"type":"stats"}
//   {"type":"shutdown"}            (drain accepted jobs, then exit)
//
// Responses (server -> client), one line each, in completion order:
//
//   {"type":"result","id":"j1","status":"ok","feasible":true,
//    "objective":123.0,"solver":"qbp","assignment":[0,1,...],
//    "queue_wait_s":0.01,"solve_s":0.42,"starts_run":4}
//   {"type":"result","id":"j1","status":"deadline_exceeded", ...}
//   {"type":"reject","id":"j3","reason":"queue full (capacity 64)"}
//   {"type":"error","reason":"line 3: unknown keyword 'foo'"}
//   {"type":"stats","uptime_s":12.5,"counters":{...}, ...}
//   {"type":"shutdown","status":"draining"}
//
// Result statuses: "ok" (feasible solution), "infeasible" (solver finished
// but found no fully feasible assignment; best penalized value reported),
// "deadline_exceeded", "cancelled", "error" (e.g. the problem text failed
// to parse).  Determinism contract: a submit with the same problem, solver
// spec and seed produces a bit-identical assignment regardless of server
// worker count, portfolio thread count, or queue load -- inherited from
// engine::Portfolio (see DESIGN.md §7) -- provided the job ran to
// completion (no deadline/cancel interruption).
//
// Warm-start serving (DESIGN.md §13): submits carry optional top-level
// "cache" and "warm_start" booleans (default true).  An exact cache hit
// returns the original result bit-identical ("cache_hit":true); a
// near-match may be answered by the ECO re-solve path ("warm_start":true
// with "eco_repairs"/"eco_edits"), whose result depends on cache contents
// -- set "warm_start":false (or run --cache off) for strict determinism.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "netlist/io.hpp"  // ParseResult
#include "util/json.hpp"

namespace qbp {
class PartitionProblem;
}  // namespace qbp

namespace qbp::service {

/// How to solve one job: a named engine solver fanned out over a
/// deterministic portfolio.  `threads` is the per-job portfolio pool; the
/// chosen assignment is independent of it (engine determinism contract).
struct SolverSpec {
  std::string method = "qbp";     // qbp | multilevel | gfm | gkl | sa
  std::int32_t starts = 1;        // independent portfolio starts
  std::int32_t threads = 1;       // portfolio worker threads for this job
  /// Intra-solve threads per start on the shared deterministic pool (qbp /
  /// multilevel methods; 0 = all hardware).  Pure wall-clock knob: results
  /// are bit-identical at every value.  The server clamps the combined
  /// workers x starts x inner_threads budget against the machine.
  std::int32_t inner_threads = 1;
  std::int32_t iterations = 100;  // QBP iteration budget (qbp method only)
  std::uint64_t seed = 1993;      // master seed; determinism anchor
  /// Per-job shadow validation ("validate": true|false): every portfolio
  /// start is re-verified from scratch (core/validate.hpp).  Absent =
  /// follow the server's process default.
  std::optional<bool> validate;
  /// Presolve the instance before solving ("presolve": true|false).  On by
  /// default: the job runs through engine::SolvePipeline (normalize ->
  /// reduce -> solve -> lift -> validate); bit-identical to off whenever no
  /// reduction rule fires.
  bool presolve = true;
  /// RN brute-force threshold ("presolve_rn"): remainders with at most this
  /// many free components are solved exactly instead of heuristically.
  std::int32_t presolve_rn = 4;
  /// Which reduction rules run ("presolve_rules": comma-separated subset of
  /// r0,r1,r2,rn); same grammar as qbpart_cli --presolve-rules.
  std::string presolve_rules = "r0,r1,r2,rn";
  /// Multilevel V-cycle shape ("ml_levels" / "ml_min_shrink" /
  /// "ml_refine_passes"; multilevel method only, ignored otherwise).  The
  /// sentinels keep the library defaults (core/multilevel.hpp): 0 levels =
  /// default depth, 0 shrink = default floor, -1 passes = default count.
  /// Unlike the thread knobs these shape the answer, so they are part of
  /// the cache spec fingerprint.
  std::int32_t ml_levels = 0;       // total levels incl. finest; 1 = flat
  double ml_min_shrink = 0.0;       // stop when a level shrinks less than this
  std::int32_t ml_refine_passes = -1;  // polish sweeps per uncoarsened level
};

enum class RequestType { kSubmit, kCancel, kStats, kShutdown };

struct Request {
  RequestType type = RequestType::kSubmit;
  std::string id;            // submit (optional; server assigns) / cancel
  std::string problem_text;  // inline .qp source ("problem" field)
  std::string problem_file;  // or a server-local path ("problem_file")
  /// Binary framing only (service/wire.hpp kProblemStruct): the already
  /// parsed problem, decoded zero-copy from the frame buffer.  When set,
  /// run_job skips the text parse; NDJSON requests always leave it null.
  std::shared_ptr<const PartitionProblem> problem;
  SolverSpec solver;
  double deadline_ms = 0.0;  // relative to receipt; 0 = no deadline
  std::int32_t priority = 0;  // higher runs first; FIFO within a priority
  /// "cache": false opts this submission out of the solution cache entirely
  /// (no lookup, no insert) -- the result is bit-identical to a server
  /// running with the cache disabled.
  bool cache = true;
  /// "warm_start": false allows exact cache hits but skips the ECO re-solve
  /// path (useful when strict cache-or-cold behaviour is wanted).
  bool warm_start = true;
};

/// Parse one request line.  Unknown `type` values and malformed JSON fail
/// with a descriptive message; unknown members are ignored (forward
/// compatibility).
[[nodiscard]] ParseResult parse_request(std::string_view line, Request& out);

/// The range checks every submit obeys, whichever framing carried it:
/// solver counts, presolve settings, V-cycle knobs and the deadline.  Both
/// parse_request and the binary decode_submit (service/wire) call it after
/// decoding, so a value is rejected by both with the same message.
[[nodiscard]] ParseResult validate_submit(const Request& request);

/// Serialize a request as one NDJSON line (no trailing newline); the
/// client-side counterpart of parse_request.
[[nodiscard]] std::string format_request(const Request& request);

/// Everything a finished (or refused) job reports back.
struct JobResult {
  std::string id;
  std::string status;  // ok | infeasible | deadline_exceeded | cancelled | error
  std::string reason;  // set for status "error"
  std::string solver;  // producing solver name
  bool feasible = false;
  double objective = 0.0;        // true objective when feasible
  double best_penalized = 0.0;   // penalized value of the best iterate
  std::vector<std::int32_t> assignment;  // empty unless a solution exists
  double queue_wait_s = 0.0;
  double solve_s = 0.0;
  std::int32_t starts_run = 0;
  /// Starts whose result passed the shadow audit (0 unless validation ran).
  std::int32_t starts_validated = 0;
  /// Presolve reduction counters (all zero when presolve was off or nothing
  /// reduced; mirrors core PresolveStats).
  std::int32_t presolve_r0 = 0;
  std::int32_t presolve_r1 = 0;
  std::int32_t presolve_r2 = 0;
  std::int32_t presolve_rn = 0;
  std::int32_t presolve_removed = 0;
  double presolve_s = 0.0;
  /// This result came verbatim from the solution cache (exact fingerprint
  /// hit); the assignment is bit-identical to the original solve's.
  bool cache_hit = false;
  /// This result came from the ECO warm-start path: polished from a cached
  /// neighbor's assignment and re-validated against the submitted problem.
  bool warm_start = false;
  /// Components that moved relative to the cached seed assignment
  /// (warm_start results only).
  std::int32_t eco_repairs = 0;
  /// Edit distance between the submitted problem and the cached neighbor it
  /// warm-started from (warm_start results only).
  std::int32_t eco_edits = 0;
};

[[nodiscard]] json::Value result_to_json(const JobResult& result);
[[nodiscard]] ParseResult result_from_json(const json::Value& value,
                                           JobResult& out);

/// The two edge framings a connection speaks (docs/PROTOCOL.md).
enum class Framing { kNdjson, kBinary };

/// One server reply, independent of the framing it travels in; rendered
/// for either framing by render_reply (service/wire.hpp).  Every member has
/// an initializer, so designated initializers may name just the ones used.
struct Reply {
  enum class Kind { kResult, kReject, kError, kStats, kCancelAck, kShutdownAck };
  Kind kind = Kind::kError;
  std::string id{};    // kReject (may be empty) and kCancelAck
  std::string text{};  // reason (kReject, kError), status (acks), stats JSON
  JobResult result{};  // kResult
};

}  // namespace qbp::service
