#include "service/server.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <list>
#include <sstream>
#include <utility>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include "service/wire.hpp"
#include "util/log.hpp"
#include "util/parallel.hpp"
#include "util/prof.hpp"
#include "util/strings.hpp"
#include "util/timer.hpp"
#include "util/wire.hpp"

namespace qbp::service {

namespace {

bool read_file_to_string(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  out = buffer.str();
  return static_cast<bool>(in) || in.eof();
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(options),
      queue_(options.queue_capacity),
      cache_(options.cache_capacity),
      started_at_(std::chrono::steady_clock::now()),
      requests_total_(metrics_.counter("requests_total")),
      requests_malformed_(metrics_.counter("requests_malformed")),
      jobs_submitted_(metrics_.counter("jobs_submitted")),
      jobs_completed_(metrics_.counter("jobs_completed")),
      jobs_ok_(metrics_.counter("jobs_ok")),
      jobs_infeasible_(metrics_.counter("jobs_infeasible")),
      jobs_rejected_(metrics_.counter("jobs_rejected")),
      jobs_cancelled_(metrics_.counter("jobs_cancelled")),
      jobs_deadline_exceeded_(metrics_.counter("jobs_deadline_exceeded")),
      jobs_error_(metrics_.counter("jobs_error")),
      queue_depth_(metrics_.gauge("queue_depth")),
      workers_busy_(metrics_.gauge("workers_busy")),
      inner_threads_effective_(metrics_.gauge("inner_threads_effective")),
      pool_utilization_(metrics_.gauge("pool_utilization")),
      presolve_r0_(metrics_.gauge("presolve.r0")),
      presolve_r1_(metrics_.gauge("presolve.r1")),
      presolve_r2_(metrics_.gauge("presolve.r2")),
      presolve_rn_(metrics_.gauge("presolve.rn")),
      presolve_removed_(metrics_.gauge("presolve.components_removed")),
      presolve_seconds_(metrics_.histogram("presolve.seconds",
                                           Histogram::latency_bounds())),
      cache_hits_(metrics_.gauge("cache.hits")),
      cache_misses_(metrics_.gauge("cache.misses")),
      cache_evictions_(metrics_.gauge("cache.evictions")),
      cache_inserts_(metrics_.gauge("cache.inserts")),
      cache_entries_(metrics_.gauge("cache.entries")),
      cache_bytes_(metrics_.gauge("cache.bytes")),
      eco_exact_hits_(metrics_.gauge("eco.exact_hits")),
      eco_warm_starts_(metrics_.gauge("eco.warm_starts")),
      eco_repairs_(metrics_.gauge("eco.repairs")),
      queue_wait_seconds_(metrics_.histogram("queue_wait_seconds",
                                             Histogram::latency_bounds())),
      solve_seconds_(
          metrics_.histogram("solve_seconds", Histogram::latency_bounds())),
      objective_(metrics_.histogram("objective")),
      contract_violations_(metrics_.counter("contract_violations")),
      wire_frames_(metrics_.counter("wire.frames")),
      wire_bytes_in_(metrics_.counter("wire.bytes_in")),
      wire_bytes_out_(metrics_.counter("wire.bytes_out")),
      wire_decode_seconds_(metrics_.histogram("wire.decode_seconds",
                                              Histogram::latency_bounds())) {
  options_.workers = std::max<std::int32_t>(1, options_.workers);
  // Contract framework wiring: violations fail one job, not the process,
  // and every firing lands in the metrics snapshot.  Both settings are
  // process-wide; one Server instance owns them at a time (the hook is
  // uninstalled in the destructor).
  check::set_fail_mode(options_.fail_mode);
  check::set_violation_hook(
      [this](std::string_view) { contract_violations_.inc(); });
  watchdog_ = std::thread([this] { watchdog_loop(); });  // qbp-lint: allow(raw-thread)
  if (options_.stats_interval_s > 0.0) {
    stats_thread_ = std::thread([this] { stats_loop(); });  // qbp-lint: allow(raw-thread)
  }
  if (options_.autostart) start();
}

Server::~Server() {
  drain();
  // The hook captures `this`; detach it before the counter dies.
  check::set_violation_hook({});
  {
    const sync::MutexLock lock(deadline_mutex_);
    watchdog_exit_ = true;
  }
  deadline_cv_.notify_all();
  watchdog_.join();
  if (stats_thread_.joinable()) {
    {
      const sync::MutexLock lock(stats_mutex_);
      stats_exit_ = true;
    }
    stats_cv_.notify_all();
    stats_thread_.join();
  }
}

void Server::start() {
  if (started_.exchange(true)) return;
  workers_.reserve(static_cast<std::size_t>(options_.workers));
  for (std::int32_t w = 0; w < options_.workers; ++w) {
    workers_.emplace_back([this, w] { worker_loop(w); });
  }
}

void Server::respond(Connection& to, const Reply& reply) {
  std::string bytes;
  render_reply(reply, to.framing(), bytes);
  if (to.framing() == Framing::kBinary) {
    wire_bytes_out_.inc(static_cast<std::int64_t>(bytes.size()));
  }
  to.write(std::move(bytes));
}

void Server::handle_line(std::string_view line,
                         const std::shared_ptr<Connection>& from) {
  requests_total_.inc();
  Request request;
  if (const auto parsed = parse_request(line, request); !parsed.ok) {
    requests_malformed_.inc();
    respond(*from, {.kind = Reply::Kind::kError, .text = parsed.message});
    return;
  }
  dispatch(std::move(request), from);
}

void Server::handle_frame(std::uint8_t type, std::string_view payload,
                          const std::shared_ptr<Connection>& from) {
  requests_total_.inc();
  wire_frames_.inc();
  wire_bytes_in_.inc(
      static_cast<std::int64_t>(payload.size() + wire::kHeaderSize));
  const Timer decode_timer;
  Request request;
  std::string error;
  if (!decode_request(type, payload, request, error)) {
    requests_malformed_.inc();
    respond(*from, {.kind = Reply::Kind::kError, .text = error});
    return;
  }
  if (request.type == RequestType::kSubmit) {
    wire_decode_seconds_.observe(decode_timer.seconds());
  }
  dispatch(std::move(request), from);
}

void Server::dispatch(Request request, const std::shared_ptr<Connection>& from) {
  switch (request.type) {
    case RequestType::kSubmit:
      handle_submit(std::move(request), from);
      return;
    case RequestType::kCancel:
      handle_cancel(request, *from);
      return;
    case RequestType::kStats:
      respond(*from, {.kind = Reply::Kind::kStats, .text = stats_json().dump()});
      return;
    case RequestType::kShutdown:
      shutdown_.store(true);
      respond(*from, {.kind = Reply::Kind::kShutdownAck, .text = "draining"});
      return;
  }
}

std::int32_t Server::clamp_inner_threads(const SolverSpec& spec) const {
  const std::int32_t requested = par::resolve_threads(spec.inner_threads);
  std::int32_t limit = options_.thread_limit;
  if (limit <= 0) {
    limit = static_cast<std::int32_t>(std::thread::hardware_concurrency());
    if (limit <= 0) limit = 1;
  }
  // Concurrent leaf threads: server workers x concurrently-running portfolio
  // starts x inner solver threads.  Only the last factor is ours to shrink.
  const std::int32_t concurrent_starts =
      std::max<std::int32_t>(1, std::min(spec.threads, spec.starts));
  const std::int32_t per_job = std::max<std::int32_t>(
      1, limit / std::max<std::int32_t>(1, options_.workers));
  const std::int32_t allowed = std::max<std::int32_t>(
      1, per_job / concurrent_starts);
  if (requested > allowed) {
    log::warn("inner_threads ", requested, " would oversubscribe (",
              options_.workers, " workers x ", concurrent_starts,
              " concurrent starts x ", requested, " > limit ", limit,
              "); clamping to ", allowed);
    return allowed;
  }
  return requested;
}

void Server::handle_submit(Request request,
                           const std::shared_ptr<Connection>& from) {
  const auto reject = [&](const std::string& id, const std::string& reason) {
    jobs_rejected_.inc();
    respond(*from, {.kind = Reply::Kind::kReject, .id = id, .text = reason});
  };

  if (!request.problem_file.empty() &&
      !read_file_to_string(request.problem_file, request.problem_text)) {
    reject(request.id,
           "cannot read problem_file '" + request.problem_file + "'");
    return;
  }

  request.solver.inner_threads = clamp_inner_threads(request.solver);
  inner_threads_effective_.set(request.solver.inner_threads);

  Job job;
  job.priority = request.priority;
  job.solver = request.solver;
  job.use_cache = request.cache;
  job.warm_start = request.warm_start;
  job.problem_text = std::move(request.problem_text);
  job.problem = std::move(request.problem);
  job.submitted_at = Job::Clock::now();
  if (request.deadline_ms > 0.0) {
    job.has_deadline = true;
    job.deadline =
        job.submitted_at +
        std::chrono::duration_cast<Job::Clock::duration>(
            std::chrono::duration<double, std::milli>(request.deadline_ms));
  }
  job.stop = std::make_shared<std::stop_source>();
  job.stop_cause =
      std::make_shared<std::atomic<int>>(static_cast<int>(StopCause::kNone));
  job.reply_to = from;

  bool duplicate = false;
  {
    const sync::MutexLock lock(active_mutex_);
    job.seq = next_seq_++;
    job.id = request.id.empty() ? "job-" + std::to_string(job.seq)
                                : std::move(request.id);
    duplicate = !active_.emplace(job.id, ActiveJob{job.stop, job.stop_cause})
                     .second;
  }
  if (duplicate) {
    // Answered outside active_mutex_: a slow client must not hold it.
    reject(job.id, "duplicate id: a job with this id is still queued or "
                   "running");
    return;
  }

  const std::string id = job.id;
  const bool has_deadline = job.has_deadline;
  const auto deadline = job.deadline;
  const std::weak_ptr<std::stop_source> weak_stop = job.stop;
  const std::weak_ptr<std::atomic<int>> weak_cause = job.stop_cause;

  const JobQueue::PushOutcome outcome = queue_.push(std::move(job));
  if (outcome != JobQueue::PushOutcome::kAccepted) {
    {
      const sync::MutexLock lock(active_mutex_);
      active_.erase(id);
    }
    reject(id, outcome == JobQueue::PushOutcome::kFull
                   ? "queue full (capacity " +
                         std::to_string(queue_.capacity()) + ")"
                   : "server draining");
    return;
  }

  jobs_submitted_.inc();
  queue_depth_.set(static_cast<std::int64_t>(queue_.size()));
  if (has_deadline) {
    {
      const sync::MutexLock lock(deadline_mutex_);
      deadlines_.push_back({deadline, id, weak_stop, weak_cause});
      std::push_heap(deadlines_.begin(), deadlines_.end(),
                     [](const DeadlineEntry& a, const DeadlineEntry& b) {
                       return a.when > b.when;
                     });
    }
    deadline_cv_.notify_one();
  }
  log::info("job ", id, ": accepted (queue depth ", queue_.size(), ")");
}

void Server::handle_cancel(const Request& request, Connection& from) {
  // Still queued: remove it and answer on the job's own connection.
  Job job;
  if (queue_.cancel(request.id, job)) {
    queue_depth_.set(static_cast<std::int64_t>(queue_.size()));
    JobResult result;
    result.id = job.id;
    result.status = "cancelled";
    result.queue_wait_s =
        std::chrono::duration<double>(Job::Clock::now() - job.submitted_at)
            .count();
    finish_job(std::move(job), std::move(result));
    return;
  }
  // Running: fire the stop source; the worker reports the final status.
  bool signalled = false;
  {
    const sync::MutexLock lock(active_mutex_);
    const auto found = active_.find(request.id);
    if (found != active_.end()) {
      int expected = static_cast<int>(StopCause::kNone);
      found->second.cause->compare_exchange_strong(
          expected, static_cast<int>(StopCause::kCancel));
      found->second.stop->request_stop();
      signalled = true;
    }
  }
  respond(from, signalled ? Reply{.kind = Reply::Kind::kCancelAck,
                                   .id = request.id,
                                   .text = "signalled"}
                          : Reply{.kind = Reply::Kind::kReject,
                                  .id = request.id,
                                  .text = "unknown job id"});
}

void Server::worker_loop(std::int32_t worker_index) {
  Job job;
  while (queue_.pop(job)) {
    queue_depth_.set(static_cast<std::int64_t>(queue_.size()));
    workers_busy_.add(1);
    std::string prefix = "w";
    prefix += std::to_string(worker_index);
    prefix += " job=";
    prefix += job.id;
    prefix += ' ';
    log::set_thread_prefix(std::move(prefix));

    const auto popped_at = Job::Clock::now();
    const double queue_wait =
        std::chrono::duration<double>(popped_at - job.submitted_at).count();

    JobResult result;
    if (job.has_deadline && popped_at >= job.deadline) {
      // Expired while queued (or submitted already expired): answer without
      // burning solver time.
      job.fire_stop(StopCause::kDeadline);
      result.id = job.id;
      result.status = "deadline_exceeded";
    } else if (prof::enabled()) {
      // Bracket the solve with two profiler snapshots and feed the per-phase
      // deltas into the stats surface.  Snapshots are process-wide, so with
      // several busy workers a job's delta includes its neighbors' phases --
      // exact with --workers 1, an aggregate load profile otherwise.
      const prof::PhaseReport before = prof::snapshot();
      result = run_job(job, &cache_);
      for (const prof::PhaseStat& stat :
           prof::snapshot().since(before).phases) {
        metrics_
            .histogram("phase_seconds." + stat.name,
                       Histogram::latency_bounds())
            .observe(stat.seconds);
      }
    } else {
      result = run_job(job, &cache_);
    }
    result.queue_wait_s = queue_wait;
    finish_job(std::move(job), std::move(result));

    workers_busy_.add(-1);
    log::set_thread_prefix({});
  }
}

void Server::finish_job(Job job, JobResult result) {
  jobs_completed_.inc();
  if (result.status == "ok") {
    jobs_ok_.inc();
  } else if (result.status == "infeasible") {
    jobs_infeasible_.inc();
  } else if (result.status == "cancelled") {
    jobs_cancelled_.inc();
  } else if (result.status == "deadline_exceeded") {
    jobs_deadline_exceeded_.inc();
  } else {
    jobs_error_.inc();
  }
  queue_wait_seconds_.observe(result.queue_wait_s);
  if (result.solve_s > 0.0) solve_seconds_.observe(result.solve_s);
  if (result.feasible) objective_.observe(result.objective);
  presolve_r0_.add(result.presolve_r0);
  presolve_r1_.add(result.presolve_r1);
  presolve_r2_.add(result.presolve_r2);
  presolve_rn_.add(result.presolve_rn);
  presolve_removed_.add(result.presolve_removed);
  if (result.presolve_s > 0.0) presolve_seconds_.observe(result.presolve_s);
  if (result.cache_hit) eco_exact_hits_.add(1);
  if (result.warm_start) {
    eco_warm_starts_.add(1);
    eco_repairs_.add(result.eco_repairs);
  }

  {
    const sync::MutexLock lock(active_mutex_);
    active_.erase(job.id);
  }
  respond(*job.reply_to,
          {.kind = Reply::Kind::kResult, .result = std::move(result)});
}

void Server::watchdog_loop() {
  const sync::MutexLock lock(deadline_mutex_);
  const auto later = [](const DeadlineEntry& a, const DeadlineEntry& b) {
    return a.when > b.when;
  };
  for (;;) {
    if (watchdog_exit_) return;
    if (deadlines_.empty()) {
      deadline_cv_.wait(deadline_mutex_);
      continue;
    }
    const auto next_deadline = deadlines_.front().when;
    if (Job::Clock::now() < next_deadline) {
      deadline_cv_.wait_until(deadline_mutex_, next_deadline);
      continue;
    }
    std::pop_heap(deadlines_.begin(), deadlines_.end(), later);
    DeadlineEntry entry = std::move(deadlines_.back());
    deadlines_.pop_back();
    const auto stop = entry.stop.lock();
    const auto cause = entry.cause.lock();
    if (stop != nullptr && cause != nullptr) {
      int expected = static_cast<int>(StopCause::kNone);
      cause->compare_exchange_strong(expected,
                                     static_cast<int>(StopCause::kDeadline));
      stop->request_stop();
      log::info("job ", entry.id, ": deadline fired");
    }
  }
}

void Server::stats_loop() {
  const auto interval = std::chrono::duration<double>(options_.stats_interval_s);
  const sync::MutexLock lock(stats_mutex_);
  while (!stats_exit_) {
    stats_cv_.wait_for(stats_mutex_, interval);
    if (stats_exit_) return;
    const std::string line = stats_json().dump();
    std::fprintf(stderr, "%s\n", line.c_str());
    std::fflush(stderr);
  }
}

json::Value Server::stats_json() {
  json::Value out = json::Value::object();
  out.set("type", "stats");
  out.set("uptime_s",
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        started_at_)
              .count());
  out.set("workers", options_.workers);
  out.set("queue_capacity", static_cast<std::int64_t>(queue_.capacity()));
  // Snapshot the shared work pool: busy helpers / spawned helpers, as an
  // integer percentage (0 when no helper has ever been needed).
  pool_utilization_.set(
      static_cast<std::int64_t>(par::utilization() * 100.0 + 0.5));
  const CacheStats cache_stats = cache_.stats();
  cache_hits_.set(cache_stats.hits);
  cache_misses_.set(cache_stats.misses);
  cache_evictions_.set(cache_stats.evictions);
  cache_inserts_.set(cache_stats.inserts);
  cache_entries_.set(cache_stats.entries);
  cache_bytes_.set(cache_stats.bytes);
  const json::Value instruments = metrics_.to_json();
  for (std::size_t k = 0; k < instruments.size(); ++k) {
    out.set(instruments.key_at(k), instruments.at(k));
  }
  return out;
}

void Server::begin_drain() {
  queue_.close();
}

void Server::drain() {
  if (drained_.exchange(true)) return;
  start();  // accepted jobs must be answered even if workers never launched
  begin_drain();
  for (auto& worker : workers_) worker.join();
  workers_.clear();
  log::info("server drained: ", jobs_completed_.value(), " jobs answered");
}

// ------------------------------------------------------------- serve loops

Connection::Connection(Sink sink, Framing framing)
    : sink_(std::move(sink)), framing_(framing) {}

Connection::Connection(int fd, bool owns_fd, WireMode mode)
    : fd_(fd),
      owns_fd_(owns_fd),
      socket_([fd] {
        struct stat info {};
        return ::fstat(fd, &info) == 0 && S_ISSOCK(info.st_mode);
      }()),
      framing_(mode == WireMode::kBinary ? Framing::kBinary : Framing::kNdjson),
      sniff_(mode == WireMode::kAuto) {}

Connection::~Connection() {
  if (owns_fd_) ::close(fd_);
}

void Connection::write(std::string bytes) {
  if (!sink_ && framing_ == Framing::kNdjson) bytes += '\n';
  const sync::MutexLock lock(write_mutex_);
  if (broken_.load()) return;
  if (sink_) {
    sink_(bytes);
  } else if (!write_fd(bytes)) {
    broken_.store(true);  // the client went away or stopped reading
  }
}

/// Sockets are written with MSG_DONTWAIT, waiting at most kSendTimeout for
/// room, and MSG_NOSIGNAL, so a vanished client cannot SIGPIPE the daemon.
/// False means the reply could not be delivered.
bool Connection::write_fd(std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t written =
        socket_ ? ::send(fd_, bytes.data(), bytes.size(),
                         MSG_NOSIGNAL | MSG_DONTWAIT)
                : ::write(fd_, bytes.data(), bytes.size());
    if (written >= 0) {
      bytes.remove_prefix(static_cast<std::size_t>(written));
      continue;
    }
    if (errno == EINTR) continue;
    pollfd room{fd_, POLLOUT, 0};
    if ((errno != EAGAIN && errno != EWOULDBLOCK) ||
        ::poll(&room, 1, static_cast<int>(kSendTimeout.count())) <= 0) {
      return false;
    }
  }
  return true;
}

bool Connection::stopped(const Server& server) const {
  return server.shutdown_requested() || broken_.load();
}

void Connection::read_requests(Server& server, int in_fd, int wake_fd) {
  // The poll timeout bounds how long a reader takes to notice a shutdown
  // requested on another connection.
  constexpr int kPollMs = 200;
  while (!stopped(server)) {
    pollfd fds[2] = {{in_fd, POLLIN, 0}, {wake_fd, POLLIN, 0}};
    const int ready =
        ::poll(fds, static_cast<nfds_t>(wake_fd >= 0 ? 2 : 1), kPollMs);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if (wake_fd >= 0 && fds[1].revents != 0) return;
    if (fds[0].revents == 0) continue;
    char buffer[4096];
    const ssize_t count = ::read(in_fd, buffer, sizeof buffer);
    if (count < 0 && errno == EINTR) continue;
    if (count <= 0) break;
    if (sniff_) {
      // First byte decides: the frame magic opens with a byte that can
      // never start an NDJSON line, so the sniff is unambiguous.
      sniff_ = false;
      framing_ = static_cast<unsigned char>(buffer[0]) == wire::kMagic[0]
                     ? Framing::kBinary
                     : Framing::kNdjson;
    }
    const auto size = static_cast<std::size_t>(count);
    if (framing_ == Framing::kBinary ? !dispatch_frames(server, buffer, size)
                                     : !dispatch_lines(server, buffer, size)) {
      return;
    }
  }
  // EOF (or a read error): a final NDJSON line without its newline still
  // counts.  A truncated binary frame is dropped silently, like a partial
  // line from a client that never finished writing it.
  if (framing_ == Framing::kNdjson && !stopped(server) &&
      !trim(pending_).empty()) {
    server.handle_line(pending_, shared_from_this());
  }
}

bool Connection::dispatch_lines(Server& server, const char* data,
                                std::size_t size) {
  // Dispatch in place and erase the consumed prefix once, so a burst of
  // pipelined lines costs linear time.
  pending_.append(data, size);
  std::size_t start = 0;
  std::size_t newline = 0;
  bool more = true;
  while (more && (newline = pending_.find('\n', start)) != std::string::npos) {
    const std::string_view line(pending_.data() + start, newline - start);
    start = newline + 1;
    if (!trim(line).empty()) server.handle_line(line, shared_from_this());
    more = !stopped(server);
  }
  pending_.erase(0, start);
  return more;
}

bool Connection::dispatch_frames(Server& server, const char* data,
                                 std::size_t size) {
  frames_.append(data, size);
  for (;;) {
    wire::FrameView frame;
    std::string error;
    switch (frames_.next(frame, error)) {
      case wire::FrameStatus::kIncomplete:
        return true;
      case wire::FrameStatus::kBad: {
        std::string reply;
        render_reply({.kind = Reply::Kind::kError, .text = error},
                     Framing::kBinary, reply);
        write(std::move(reply));
        return false;
      }
      case wire::FrameStatus::kFrame:
        server.handle_frame(frame.type, frame.payload, shared_from_this());
        frames_.consume(frame.frame_size);
        if (stopped(server)) return false;
        break;
    }
  }
}

int serve_fd(Server& server, int in_fd, int out_fd, int wake_fd,
             WireMode mode) {
  std::make_shared<Connection>(out_fd, /*owns_fd=*/false, mode)
      ->read_requests(server, in_fd, wake_fd);
  server.drain();
  return 0;
}

int serve_tcp(Server& server, std::uint16_t port, int wake_fd, WireMode mode,
              std::atomic<std::uint16_t>* bound_port) {
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd < 0) {
    log::error("qbpartd: socket() failed: ", std::strerror(errno));
    return 1;
  }
  const int reuse = 1;
  ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof reuse);
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(listen_fd, reinterpret_cast<const sockaddr*>(&address),
             sizeof address) < 0 ||
      ::listen(listen_fd, 16) < 0) {
    log::error("qbpartd: cannot listen on 127.0.0.1:", port, ": ",
               std::strerror(errno));
    ::close(listen_fd);
    return 1;
  }
  // Report the actual port (0 requests an ephemeral one) as a parseable
  // stderr line before serving.
  socklen_t address_len = sizeof address;
  ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&address), &address_len);
  if (bound_port != nullptr) bound_port->store(ntohs(address.sin_port));
  std::fprintf(stderr, "{\"type\":\"listening\",\"port\":%u}\n",
               static_cast<unsigned>(ntohs(address.sin_port)));
  std::fflush(stderr);

  // Reader threads block on poll(2); they cannot ride the work pool.  Each
  // is joined as soon as it has exited, so finished connections do not
  // keep their stacks mapped until shutdown.
  struct Reader {
    std::thread thread;  // qbp-lint: allow(raw-thread)
    std::atomic<bool> done{false};
  };
  std::list<Reader> readers;
  const auto reap = [&readers](bool all) {
    readers.remove_if([all](Reader& reader) {
      if (!all && !reader.done.load()) return false;
      reader.thread.join();
      return true;
    });
  };

  for (;;) {
    pollfd fds[2] = {{listen_fd, POLLIN, 0}, {wake_fd, POLLIN, 0}};
    const int watched = wake_fd >= 0 ? 2 : 1;
    const int ready = ::poll(fds, static_cast<nfds_t>(watched), 200);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    reap(/*all=*/false);
    if (server.shutdown_requested()) break;
    if (wake_fd >= 0 && fds[1].revents != 0) break;
    if (fds[0].revents == 0) continue;
    const int conn_fd = ::accept(listen_fd, nullptr, nullptr);
    if (conn_fd < 0) continue;
    Reader& reader = readers.emplace_back();
    reader.thread = std::thread(  // qbp-lint: allow(raw-thread)
        [&server, &reader, conn_fd, wake_fd, mode] {
          std::make_shared<Connection>(conn_fd, /*owns_fd=*/true, mode)
              ->read_requests(server, conn_fd, wake_fd);
          reader.done.store(true);
        });
  }

  ::close(listen_fd);
  reap(/*all=*/true);
  server.drain();
  return 0;
}

}  // namespace qbp::service
