// qbpartd's core: a long-running job server over the NDJSON protocol,
// with an optional binary framing on the same connections (WireMode;
// layouts in docs/PROTOCOL.md).
//
// Architecture (one Server instance, any number of client Connections):
//
//   Connection --> handle_line  --> dispatch --> bounded JobQueue --> workers
//   (reader)       handle_frame        |                                 |
//                  (decode only)       |  immediate replies              |  results
//                                      v  (reject/stats/errors)          v
//                        the requesting Connection  <------------  finish_job
//
//   + deadline watchdog: one thread holding a min-heap of job deadlines;
//     fires the job's stop source (StopCause::kDeadline) whether the job is
//     still queued or already running -- both paths funnel into the
//     cooperative should_stop hooks of the engine layer;
//   + metrics: every lifecycle edge increments the registry; a `stats`
//     request (and an optional periodic stderr line) renders the snapshot.
//
// Replies are typed values (Reply) that render_reply (service/wire.hpp)
// renders in the connection's framing; each Connection writes them under
// its own lock, so a client that stops reading stalls only itself.  A sink
// shared by several connections must be thread-safe.  Each job holds the
// Connection that submitted it: a result goes only to that client, and a
// socket closes only once its reader has exited and its last job answered.
//
// Lifecycle: construct -> (start() if not auto) -> handle_line()* ->
// begin_drain() -> drain().  begin_drain closes the queue (new submits are
// rejected with "server draining"); drain blocks until every accepted job
// has been answered and the workers exited.  The SIGINT/SIGTERM path of
// qbpartd is exactly this sequence, so a loaded server finishes what it
// accepted and exits 0.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "service/cache.hpp"
#include "service/job.hpp"
#include "service/metrics.hpp"
#include "service/queue.hpp"
#include "util/annotations.hpp"
#include "util/check.hpp"
#include "util/wire.hpp"

namespace qbp::service {

/// Edge framing for the serve loops (docs/PROTOCOL.md).  kAuto sniffs the
/// first byte of each connection: the binary frame magic starts with a
/// byte that can never open an NDJSON line, so detection is unambiguous.
/// kNdjson pins the pre-binary behaviour exactly (frames are treated as
/// text and answered with NDJSON parse errors); kBinary requires frames.
enum class WireMode { kAuto, kNdjson, kBinary };

struct ServerOptions {
  /// Concurrent jobs (each job may additionally fan out portfolio threads
  /// of its own, bounded by the job's solver spec).
  std::int32_t workers = 1;
  /// Queue bound; a full queue rejects new submits (backpressure).
  std::size_t queue_capacity = 64;
  /// Emit one metrics JSON line on stderr every interval; 0 disables.
  double stats_interval_s = 0.0;
  /// Launch workers in the constructor.  Tests set this false and call
  /// start() after staging submissions, making pop order deterministic.
  bool autostart = true;
  /// Combined thread budget for the whole process: workers x portfolio
  /// starts x inner solver threads is clamped so it never exceeds this.
  /// 0 means hardware_concurrency().  A submit whose solver spec would
  /// oversubscribe gets its inner_threads clamped (with a warning log and
  /// the `inner_threads_effective` gauge updated); the job itself is never
  /// rejected for asking too much.
  std::int32_t thread_limit = 0;
  /// Solution-cache capacity in entries (DESIGN.md §13); 0 disables both
  /// the exact-hit path and ECO warm starts, making every job bit-identical
  /// to the pre-cache server.
  std::size_t cache_capacity = 64;
  /// Contract-violation fail mode installed (process-wide) at construction.
  /// The daemon default is throw: a violation -- hostile input reaching a
  /// construction boundary, or a shadow-audit mismatch -- fails the one
  /// offending job with a descriptive error and the server survives.
  /// kAbort restores fail-fast; kLogAndCount audits without failing jobs.
  /// Every violation in any mode bumps the `contract_violations` counter.
  check::FailMode fail_mode = check::FailMode::kThrow;
};

class Server;

/// A reply write that makes no progress for this long marks its connection
/// broken: later replies to it are dropped and its reader stops.
inline constexpr std::chrono::milliseconds kSendTimeout{5000};

/// One client of the server: where its replies go, in which framing, and
/// (in the serve loops) the receive side of its byte stream.  Create it
/// with std::make_shared: its reader and every job it submitted share it,
/// so an owned fd closes only when none of them can still use it.
class Connection : public std::enable_shared_from_this<Connection> {
 public:
  /// Receives one rendered reply: an NDJSON line without its newline, or
  /// one complete wire frame.
  using Sink = std::function<void(const std::string&)>;

  /// An in-process client (tests, the serve bench): every reply, rendered
  /// in `framing`, is handed to `sink`.
  Connection(Sink sink, Framing framing);
  /// A serve-loop client: replies are written to `fd`, NDJSON lines with
  /// their newline or raw frames, in the framing `mode` pins or the first
  /// received byte selects.  With `owns_fd` the destructor closes `fd`.
  Connection(int fd, bool owns_fd, WireMode mode);
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  [[nodiscard]] Framing framing() const noexcept { return framing_; }

  /// Deliver one rendered reply.  Thread-safe; dropped once broken.
  void write(std::string bytes);

  /// The serve loops' read side: read `in_fd` and dispatch each request on
  /// `server` until EOF, a read error, a malformed frame (answered with one
  /// error frame), a broken connection, a shutdown request from any client,
  /// or a byte on `wake_fd` (-1 for none).  At EOF a final NDJSON line
  /// without its newline still counts.
  void read_requests(Server& server, int in_fd, int wake_fd);

 private:
  /// Buffer freshly read bytes and dispatch every complete request; false
  /// when this connection should stop reading.
  bool dispatch_lines(Server& server, const char* data, std::size_t size);
  bool dispatch_frames(Server& server, const char* data, std::size_t size);
  [[nodiscard]] bool stopped(const Server& server) const;
  [[nodiscard]] bool write_fd(std::string_view bytes);

  const Sink sink_;
  const int fd_ = -1;
  const bool owns_fd_ = false;
  const bool socket_ = false;
  // Set before the first request is dispatched and read by workers after
  // the queue hand-off, so it needs no lock.
  Framing framing_ = Framing::kNdjson;
  bool sniff_ = false;        // framing_ still waits for the first byte
  std::string pending_;       // NDJSON receive buffer
  wire::FrameBuffer frames_;  // binary receive arena, reused across requests
  sync::Mutex write_mutex_;
  std::atomic<bool> broken_{false};
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Launch the worker pool (idempotent).
  void start();

  /// Decode one protocol line and dispatch it.  Immediate replies (reject,
  /// stats, parse errors, shutdown acknowledgement) reach `from` before
  /// returning; a job's result arrives on it later from a worker thread.
  /// Thread-safe.
  void handle_line(std::string_view line,
                   const std::shared_ptr<Connection>& from);

  /// Decode one binary frame (already split from the byte stream by
  /// util/wire FrameBuffer) and dispatch it; otherwise as handle_line.
  void handle_frame(std::uint8_t type, std::string_view payload,
                    const std::shared_ptr<Connection>& from);

  /// Stop accepting submits; queued and running jobs keep going.
  void begin_drain();

  /// begin_drain() + block until every accepted job has been answered and
  /// the worker threads exited.
  void drain();

  /// A {"type":"shutdown"} request arrived; the serve loop polls this.
  [[nodiscard]] bool shutdown_requested() const noexcept {
    return shutdown_.load();
  }

  [[nodiscard]] MetricsRegistry& metrics() noexcept { return metrics_; }
  [[nodiscard]] SolutionCache& cache() noexcept { return cache_; }
  [[nodiscard]] json::Value stats_json();
  [[nodiscard]] const ServerOptions& options() const noexcept { return options_; }

 private:
  struct ActiveJob {
    std::shared_ptr<std::stop_source> stop;
    std::shared_ptr<std::atomic<int>> cause;
  };
  struct DeadlineEntry {
    Job::Clock::time_point when;
    std::string id;
    std::weak_ptr<std::stop_source> stop;
    std::weak_ptr<std::atomic<int>> cause;
  };

  /// The one request dispatcher behind both framings.
  void dispatch(Request request, const std::shared_ptr<Connection>& from);
  void handle_submit(Request request, const std::shared_ptr<Connection>& from);
  /// Resolve and clamp a spec's inner_threads against the combined budget
  /// (workers x starts x inner <= thread_limit); logs when it clamps.
  [[nodiscard]] std::int32_t clamp_inner_threads(const SolverSpec& spec) const;
  void handle_cancel(const Request& request, Connection& from);
  void worker_loop(std::int32_t worker_index);
  /// Count the finished job and answer its connection; consumes the job,
  /// releasing its hold on the connection.
  void finish_job(Job job, JobResult result);
  void watchdog_loop();
  void stats_loop();
  /// Render `reply` in `to`'s framing and write it (plus the
  /// wire.bytes_out accounting for binary replies).
  void respond(Connection& to, const Reply& reply);

  ServerOptions options_;
  MetricsRegistry metrics_;
  JobQueue queue_;
  SolutionCache cache_;
  std::chrono::steady_clock::time_point started_at_;

  sync::Mutex active_mutex_;
  std::unordered_map<std::string, ActiveJob> active_
      QBP_GUARDED_BY(active_mutex_);
  std::int64_t next_seq_ QBP_GUARDED_BY(active_mutex_) = 0;

  sync::Mutex deadline_mutex_;
  sync::CondVar deadline_cv_;
  // Min-heap by `when` (std::push_heap/pop_heap with a `>` comparator).
  std::vector<DeadlineEntry> deadlines_ QBP_GUARDED_BY(deadline_mutex_);
  bool watchdog_exit_ QBP_GUARDED_BY(deadline_mutex_) = false;

  // Worker/watchdog/stats threads are owned here, not by util/parallel: they
  // block on condition variables and sockets, which the deterministic work
  // pool forbids.
  std::vector<std::thread> workers_;  // qbp-lint: allow(raw-thread)
  std::thread watchdog_;              // qbp-lint: allow(raw-thread)
  std::thread stats_thread_;          // qbp-lint: allow(raw-thread)
  sync::CondVar stats_cv_;
  sync::Mutex stats_mutex_;
  bool stats_exit_ QBP_GUARDED_BY(stats_mutex_) = false;

  std::atomic<bool> started_{false};
  std::atomic<bool> drained_{false};
  std::atomic<bool> shutdown_{false};

  // Cached instruments (registry lookups are mutex-guarded).
  Counter& requests_total_;
  Counter& requests_malformed_;
  Counter& jobs_submitted_;
  Counter& jobs_completed_;
  Counter& jobs_ok_;
  Counter& jobs_infeasible_;
  Counter& jobs_rejected_;
  Counter& jobs_cancelled_;
  Counter& jobs_deadline_exceeded_;
  Counter& jobs_error_;
  Gauge& queue_depth_;
  Gauge& workers_busy_;
  Gauge& inner_threads_effective_;
  Gauge& pool_utilization_;
  // Cumulative presolve reduction totals across all completed jobs, plus
  // the wall clock the most recent reducing job spent in presolve.
  Gauge& presolve_r0_;
  Gauge& presolve_r1_;
  Gauge& presolve_r2_;
  Gauge& presolve_rn_;
  Gauge& presolve_removed_;
  Histogram& presolve_seconds_;
  // Solution-cache snapshot (mirrored from SolutionCache::stats() when a
  // stats line renders) and cumulative ECO totals across completed jobs.
  Gauge& cache_hits_;
  Gauge& cache_misses_;
  Gauge& cache_evictions_;
  Gauge& cache_inserts_;
  Gauge& cache_entries_;
  Gauge& cache_bytes_;
  Gauge& eco_exact_hits_;
  Gauge& eco_warm_starts_;
  Gauge& eco_repairs_;
  Histogram& queue_wait_seconds_;
  Histogram& solve_seconds_;
  Histogram& objective_;
  Counter& contract_violations_;
  // Binary wire framing (docs/PROTOCOL.md): frames dispatched, raw bytes
  // in both directions (headers included), and the per-frame decode cost
  // of the zero-copy submit path.
  Counter& wire_frames_;
  Counter& wire_bytes_in_;
  Counter& wire_bytes_out_;
  Histogram& wire_decode_seconds_;
};

/// Pipe / socket serve loops (POSIX).  Both run Connection::read_requests
/// on each connection until EOF, a shutdown request, or a byte on `wake_fd`
/// (the signal handler's self-pipe; pass -1 for none), then drain the
/// server and return 0.  `mode` picks the edge framing per connection
/// (WireMode above); a malformed binary frame answers with one error frame
/// and fails only that connection, never the daemon.
/// serve_fd reads from `in_fd` and writes every reply to `out_fd`; both
/// stay open (they belong to the caller).
[[nodiscard]] int serve_fd(Server& server, int in_fd, int out_fd, int wake_fd,
                           WireMode mode = WireMode::kAuto);

/// Listens on 127.0.0.1:`port`, one reader thread per connection, joined
/// as soon as it exits; replies go only to the connection that sent the
/// request.  Returns 0 on clean drain, 1 on socket setup failure.
/// `bound_port`, when non-null, receives the actual listening port (useful
/// with port 0) before the accept loop starts.
[[nodiscard]] int serve_tcp(Server& server, std::uint16_t port, int wake_fd,
                            WireMode mode = WireMode::kAuto,
                            std::atomic<std::uint16_t>* bound_port = nullptr);

}  // namespace qbp::service
