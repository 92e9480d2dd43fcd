// The serve workload: an in-process service::Server (4 workers, cache on)
// behind serve_tcp on loopback, driven in a closed loop by this one thread
// polling four client connections.
//
//   * three binary "resubmit" connections each keep mix.window submits
//     outstanding.  Their stream re-submits the primed designs (exact cache
//     hits) and, every mix.eco_every-th job, a fresh make_eco_variant of one
//     of them (find_nearest, ECO repair, cache insert);
//   * one NDJSON "fresh design" connection submits never-seen designs one
//     at a time (text parse, cold engine::Portfolio solve).
//
// The mix (ServeMix) is an assumption, not a measured qbpartd stream.
//
// Every reply is checked: exact hits must equal the primed answer bit for
// bit, and every other answer must be feasible with its objective
// recomputed on the submitted problem.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_support/circuits.hpp"
#include "bench_support/eco_stream.hpp"
#include "core/fingerprint.hpp"
#include "core/problem_io.hpp"
#include "service/cache.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/wire.hpp"
#include "trace.hpp"
#include "util/prof.hpp"
#include "util/timer.hpp"
#include "util/wire.hpp"

namespace perfbench {

namespace {

using qbp::json::Value;
namespace service = qbp::service;

constexpr std::int32_t kN = 400;
constexpr std::int32_t kResubmitConnections = 3;
constexpr int kSetupRepeats = 3;
/// Replies still missing this long after the window closed count as lost.
constexpr double kDrainSeconds = 30.0;
/// Fixed-width request ids, so a pre-encoded exact re-submit frame can be
/// reused with only the id digits rewritten.
constexpr std::size_t kIdDigits = 12;

service::SolverSpec job_spec() {
  service::SolverSpec spec;
  spec.method = "qbp";
  // Enough that every cold solve of these N = 400 designs lands feasible:
  // over 1,600 fresh designs, 4 x 30 left none infeasible, while 4 x 10
  // left about one in thirty and 4 x 20 one in eight hundred.
  spec.starts = 4;
  spec.iterations = 30;
  spec.seed = 7;
  // Pinned so cache keys do not depend on the build's validation default;
  // the benchmark validates every answer itself.
  spec.validate = false;
  return spec;
}

std::string make_id(char kind, std::int64_t number) {
  char digits[kIdDigits + 1];
  std::snprintf(digits, sizeof digits, "%012lld",
                static_cast<long long>(number));
  return std::string(1, kind) + digits;
}

bool objective_matches(const qbp::PartitionProblem& problem,
                       const service::JobResult& result) {
  if (result.status != "ok" || !result.feasible) return false;
  if (result.assignment.size() !=
      static_cast<std::size_t>(problem.num_components())) {
    return false;
  }
  const qbp::Assignment assignment(result.assignment,
                                   problem.num_partitions());
  if (!assignment.is_complete() || !problem.is_feasible(assignment)) {
    return false;
  }
  const double recomputed = problem.objective(assignment);
  return std::fabs(recomputed - result.objective) <=
         1e-9 * std::max({1.0, std::fabs(recomputed),
                          std::fabs(result.objective)});
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// One non-blocking loopback client connection.
struct Connection {
  int fd = -1;
  bool binary = true;
  std::string out;
  std::size_t out_sent = 0;
  qbp::wire::FrameBuffer frames;
  std::string lines;

  Connection() = default;
  ~Connection() {
    if (fd >= 0) ::close(fd);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool open(std::uint16_t port) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      return false;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    return ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK) == 0;
  }

  void queue(std::string_view bytes) {
    out.append(bytes);
    if (!binary) out.push_back('\n');
  }

  /// Write what the socket accepts; false on a socket error.
  bool flush() {
    while (out_sent < out.size()) {
      const ssize_t sent = ::send(fd, out.data() + out_sent,
                                  out.size() - out_sent, MSG_NOSIGNAL);
      if (sent < 0) return errno == EAGAIN || errno == EWOULDBLOCK;
      out_sent += static_cast<std::size_t>(sent);
    }
    out.clear();
    out_sent = 0;
    return true;
  }

  /// Read what is available and hand every complete reply (a frame's
  /// payload or an NDJSON line) to `on_reply`; false on EOF or error.
  template <class OnReply>
  bool receive(OnReply&& on_reply) {
    char buffer[1 << 16];
    while (true) {
      const ssize_t got = ::recv(fd, buffer, sizeof buffer, 0);
      if (got == 0) return false;
      if (got < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        return false;
      }
      if (binary) {
        frames.append(buffer, static_cast<std::size_t>(got));
      } else {
        lines.append(buffer, static_cast<std::size_t>(got));
      }
    }
    if (binary) {
      qbp::wire::FrameView frame;
      std::string error;
      qbp::wire::FrameStatus status;
      while ((status = frames.next(frame, error)) ==
             qbp::wire::FrameStatus::kFrame) {
        on_reply(frame.type, frame.payload);
        frames.consume(frame.frame_size);
      }
      return status != qbp::wire::FrameStatus::kBad;
    }
    std::size_t start = 0;
    for (std::size_t nl; (nl = lines.find('\n', start)) != std::string::npos;
         start = nl + 1) {
      on_reply(0, std::string_view(lines).substr(start, nl - start));
    }
    lines.erase(0, start);
    return true;
  }
};

/// A server on an ephemeral loopback port plus its serve_tcp thread.
class Rig {
 public:
  explicit Rig(const service::ServerOptions& options) : server_(options) {
    // Without a wake pipe the loop could not be stopped: leave port() at 0
    // so set-up fails instead.
    if (::pipe(wake_) != 0) return;
    // Server and serve-loop threads belong to the program under test; the
    // benchmark only starts and joins the loop.
    loop_ = std::thread([this] {
      status_ = service::serve_tcp(server_, 0, wake_[0],
                                   service::WireMode::kAuto, &port_);
    });
    while (port_.load() == 0 && status_.load() < 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  ~Rig() {
    if (loop_.joinable()) {
      const char byte = 'x';
      (void)!::write(wake_[1], &byte, 1);
      loop_.join();
    }
    for (const int fd : wake_) {
      if (fd >= 0) ::close(fd);
    }
  }

  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_.load(); }
  [[nodiscard]] service::Server& server() { return server_; }

 private:
  service::Server server_;
  int wake_[2] = {-1, -1};
  std::atomic<std::uint16_t> port_{0};
  std::atomic<int> status_{-1};
  std::thread loop_;
};

struct Pending {
  enum class Kind { kExact, kEco, kFresh } kind = Kind::kExact;
  std::int64_t number = 0;  // request id of the job's span
  std::int64_t sent_ns = 0;
  std::int32_t design = 0;
  std::shared_ptr<const qbp::PartitionProblem> problem;  // eco / fresh
};

bool decode_reply(std::uint8_t type, std::string_view payload, bool binary,
                  service::JobResult& result, std::string& why) {
  if (binary) {
    if (static_cast<service::WireMsg>(type) != service::WireMsg::kResult) {
      std::string id;
      std::string text;
      if (service::decode_note(payload, id, text, why)) {
        result.id = id;
        why = text;
      }
      result.status = static_cast<service::WireMsg>(type) ==
                              service::WireMsg::kReject
                          ? "rejected"
                          : "error";
      return false;
    }
    return service::decode_result(payload, result, why);
  }
  Value value;
  if (!qbp::json::parse(payload, value).ok) {
    why = "unparsable reply";
    return false;
  }
  const std::string type_name = value.get_string("type", "");
  if (type_name != "result") {
    result.id = value.get_string("id", "");
    result.status = type_name == "reject" ? "rejected" : "error";
    why = value.get_string("reason", type_name);
    return false;
  }
  const qbp::ParseResult parsed = service::result_from_json(value, result);
  why = parsed.message;
  return parsed.ok;
}

std::string problem_text(const qbp::PartitionProblem& problem) {
  std::ostringstream text;
  qbp::write_problem(text, problem);
  return text.str();
}

/// Everything set-up produces; rebuilt kSetupRepeats times.
struct Setup {
  std::vector<std::shared_ptr<const qbp::PartitionProblem>> designs;
  std::vector<service::JobResult> primed;
  std::unique_ptr<Rig> rig;
  std::vector<std::unique_ptr<Connection>> connections;
  bool ok = false;
};

std::string submit_frame(const std::string& id,
                         std::shared_ptr<const qbp::PartitionProblem> problem) {
  service::Request request;
  request.type = service::RequestType::kSubmit;
  request.id = id;
  request.solver = job_spec();
  request.problem = std::move(problem);
  std::string frame;
  service::encode_request_frame(request, frame);
  return frame;
}

/// Send what `conn` has queued and block until it has yielded `count`
/// replies (frame type, payload).
bool await_replies(Connection& conn, std::size_t count,
                   std::vector<std::pair<std::uint8_t, std::string>>& replies) {
  while (replies.size() < count) {
    if (!conn.flush()) return false;
    pollfd fd{conn.fd,
              static_cast<short>(POLLIN | (conn.out.empty() ? 0 : POLLOUT)), 0};
    if (::poll(&fd, 1, 60000) <= 0) return false;
    if ((fd.revents & (POLLIN | POLLHUP | POLLERR)) != 0 &&
        !conn.receive([&](std::uint8_t type, std::string_view payload) {
          replies.emplace_back(type, std::string(payload));
        })) {
      return false;
    }
  }
  return true;
}

Setup set_up(Run& run) {
  Setup setup;
  const std::int32_t primed = run.mix.primed;
  for (std::int32_t d = 0; d < primed; ++d) {
    const Tracer::Scope span(run.tracer, "gen.instance");
    setup.designs.push_back(std::make_shared<const qbp::PartitionProblem>(
        qbp::make_scaling_problem(kN, derive(run.seed, 400 + d))));
  }
  service::ServerOptions options;
  options.workers = 4;
  options.queue_capacity = 256;
  options.cache_capacity = 512;
  setup.rig = std::make_unique<Rig>(options);
  if (setup.rig->port() == 0) return setup;
  for (std::int32_t c = 0; c <= kResubmitConnections; ++c) {
    auto conn = std::make_unique<Connection>();
    conn->binary = c < kResubmitConnections;
    if (!conn->open(setup.rig->port())) return setup;
    setup.connections.push_back(std::move(conn));
  }
  // Cold-prime every design through the first resubmit connection; the
  // answers are the references exact hits must reproduce.
  Connection& conn = *setup.connections.front();
  for (std::int32_t d = 0; d < primed; ++d) {
    conn.queue(submit_frame(make_id('p', d), setup.designs[d]));
  }
  std::vector<std::pair<std::uint8_t, std::string>> replies;
  if (!await_replies(conn, primed, replies)) return setup;
  setup.primed.resize(primed);
  for (const auto& [type, payload] : replies) {
    service::JobResult result;
    std::string why;
    if (!decode_reply(type, payload, true, result, why)) {
      std::fprintf(stderr, "perfbench serve: priming failed: %s\n",
                   why.c_str());
      return setup;
    }
    const std::size_t d = std::stoul(result.id.substr(1));
    if (d >= setup.designs.size() ||
        !objective_matches(*setup.designs[d], result)) {
      std::fprintf(stderr, "perfbench serve: priming %s failed: %s\n",
                   result.id.c_str(), result.status.c_str());
      return setup;
    }
    setup.primed[d] = std::move(result);
  }
  setup.ok = true;
  return setup;
}

/// Replay samples of the live request stream through the public functions
/// the server calls, on this thread with spans around each call.
void replay(Run& run, const Setup& setup,
            const std::vector<std::string>& exact_frames,
            const std::vector<std::string>& eco_frames,
            const std::vector<std::string>& fresh_lines) {
  const service::SolverSpec spec = job_spec();
  const qbp::Hash128 spec_key = service::spec_fingerprint(spec, false);
  service::SolutionCache cache(512);
  for (std::size_t d = 0; d < setup.designs.size(); ++d) {
    const qbp::PartitionProblem& problem = *setup.designs[d];
    const service::JobResult& primed = setup.primed[d];
    service::CachedSolve solve;
    solve.solver = primed.solver;
    solve.feasible = primed.feasible;
    solve.objective = primed.objective;
    solve.best_penalized = primed.best_penalized;
    solve.assignment = primed.assignment;
    cache.insert(service::combine_keys(qbp::problem_fingerprint(problem),
                                       spec_key),
                 spec_key, service::make_digest(problem), std::move(solve));
  }

  std::int64_t request = 1'000'000'000;
  const auto replay_submit = [&](const std::string& frame, bool nearest) {
    const Tracer::Scope root(run.tracer, "replay.request", request++);
    qbp::wire::FrameView view;
    std::string error;
    if (qbp::wire::peek_frame(frame, view, error) !=
        qbp::wire::FrameStatus::kFrame) {
      return;
    }
    service::Request decoded;
    {
      const Tracer::Scope span(run.tracer, "wire.decode_submit");
      if (!service::decode_submit(view.payload, decoded, error)) return;
    }
    qbp::Hash128 fingerprint;
    {
      const Tracer::Scope span(run.tracer, "fingerprint");
      fingerprint = qbp::problem_fingerprint(*decoded.problem);
    }
    service::CachedSolve hit;
    bool found = false;
    {
      const Tracer::Scope span(run.tracer, "cache.find_exact");
      found = cache.find_exact(service::combine_keys(fingerprint, spec_key),
                               hit);
    }
    if (nearest) {
      const service::ProblemDigest digest =
          service::make_digest(*decoded.problem);
      service::SolutionCache::Neighbor neighbor;
      const Tracer::Scope span(run.tracer, "cache.find_nearest");
      found = cache.find_nearest(
          spec_key, digest,
          service::SolutionCache::default_edit_budget(
              decoded.problem->num_components()),
          neighbor);
      hit = std::move(neighbor.solve);
    }
    if (!found) return;
    service::JobResult result;
    result.id = decoded.id;
    result.status = "ok";
    result.solver = hit.solver;
    result.feasible = hit.feasible;
    result.objective = hit.objective;
    result.assignment = std::move(hit.assignment);
    std::string out;
    const Tracer::Scope span(run.tracer, "wire.encode_result");
    service::encode_result_frame(result, out);
  };
  for (const std::string& frame : exact_frames) replay_submit(frame, false);
  for (const std::string& frame : eco_frames) replay_submit(frame, true);
  for (const std::string& line : fresh_lines) {
    const Tracer::Scope root(run.tracer, "replay.request", request++);
    service::Request parsed;
    const Tracer::Scope span(run.tracer, "protocol.parse");
    (void)service::parse_request(line, parsed);
  }
}

}  // namespace

void run_serve(Run& run) {
  const bool trace = run.trace;
  Setup setup;
  std::vector<double> setup_s;
  for (int k = 0; k < kSetupRepeats; ++k) {
    // Tear the previous round down: clients first, then the server.
    setup.connections.clear();
    setup.rig.reset();
    const qbp::Timer timer;
    setup = set_up(run);
    setup_s.push_back(timer.seconds());
    if (!setup.ok) break;
  }
  run.out.set("setup_s", to_json_array(setup_s));
  run.tracer.set_enabled(false);
  if (!setup.ok) {
    run.outcomes.fail(&Outcomes::error, "serve: set-up failed");
    return;
  }
  double wire_cost = 0.0;
  for (const service::JobResult& primed : setup.primed) {
    wire_cost += primed.objective;
  }
  run.out.set("wire_cost", wire_cost);

  // Pre-encoded exact re-submit frames, one per primed design, whose id
  // digits are rewritten per job.
  std::vector<std::string> exact_templates;
  std::vector<std::size_t> id_offsets;
  for (std::size_t d = 0; d < setup.designs.size(); ++d) {
    const std::string id = make_id('x', 0);
    exact_templates.push_back(submit_frame(id, setup.designs[d]));
    const std::size_t at = exact_templates.back().find(id);
    if (at == std::string::npos) {
      run.outcomes.fail(&Outcomes::error, "serve: id not found in frame");
      return;
    }
    id_offsets.push_back(at + 1);
  }

  std::map<std::string, Pending> pending;
  std::int64_t next_job = 0;
  std::int64_t eco_sent = 0;
  std::int64_t fresh_sent = 0;
  std::int64_t warm_answers = 0;
  std::int64_t traced_fresh = 0;  // cold jobs answered while tracing
  Samples resubmit_ms;
  Samples cold_ms;
  Samples cold_solve_s;
  // Resubmit replies per whole second of the window; a traced run traces
  // from slice `traced_from` on.
  std::vector<std::int64_t> slices(
      static_cast<std::size_t>(std::max(1.0, std::floor(run.seconds))), 0);
  const std::size_t traced_from = trace ? slices.size() / 2 : slices.size();
  std::vector<std::string> sample_exact;
  std::vector<std::string> sample_eco;
  std::vector<std::string> sample_fresh;

  constexpr std::int64_t kSecond = 1'000'000'000;
  const std::int64_t start_ns = run.tracer.now_ns();
  const std::int64_t half_ns =
      start_ns + static_cast<std::int64_t>(traced_from) * kSecond;
  const std::int64_t end_ns =
      start_ns + static_cast<std::int64_t>(run.seconds * 1e9);
  const std::int64_t give_up_ns =
      end_ns + static_cast<std::int64_t>(kDrainSeconds) * kSecond;
  bool tracing = false;
  Value stats_before;
  Value pool_before;

  const auto send_resubmit = [&](Connection& conn) {
    const std::int64_t job = next_job++;
    Pending entry;
    entry.number = job;
    entry.design = static_cast<std::int32_t>(job % run.mix.primed);
    std::string id;
    if (job % run.mix.eco_every == run.mix.eco_every - 1) {
      // ECO variants cycle through the primed designs on a counter of their
      // own: with eco_every a multiple of primed, the job number would send
      // every variant to the same design.
      entry.kind = Pending::Kind::kEco;
      entry.design = static_cast<std::int32_t>(eco_sent++ % run.mix.primed);
      id = make_id('e', job);
      entry.problem = std::make_shared<const qbp::PartitionProblem>(
          qbp::make_eco_variant(*setup.designs[entry.design],
                                derive(run.seed, 77),
                                static_cast<std::int32_t>(eco_sent)));
      const std::string frame = submit_frame(id, entry.problem);
      if (tracing && sample_eco.size() < 16) sample_eco.push_back(frame);
      conn.queue(frame);
    } else {
      id = make_id('x', job);
      std::string& frame = exact_templates[entry.design];
      frame.replace(id_offsets[entry.design], kIdDigits, id, 1, kIdDigits);
      if (tracing && sample_exact.size() < 64) sample_exact.push_back(frame);
      conn.queue(frame);
    }
    entry.sent_ns = run.tracer.now_ns();
    pending.emplace(std::move(id), std::move(entry));
  };
  const auto send_fresh = [&](Connection& conn) {
    Pending entry;
    entry.kind = Pending::Kind::kFresh;
    entry.number = -1 - fresh_sent;
    entry.problem = std::make_shared<const qbp::PartitionProblem>(
        qbp::make_scaling_problem(kN, derive(run.seed, 100000 + fresh_sent)));
    service::Request request;
    request.type = service::RequestType::kSubmit;
    request.id = make_id('f', fresh_sent++);
    request.solver = job_spec();
    request.problem_text = problem_text(*entry.problem);
    const std::string line = service::format_request(request);
    if (tracing && sample_fresh.size() < 8) sample_fresh.push_back(line);
    conn.queue(line);
    entry.sent_ns = run.tracer.now_ns();
    pending.emplace(request.id, std::move(entry));
  };

  std::vector<Connection*> conns;
  for (auto& conn : setup.connections) conns.push_back(conn.get());
  for (std::int32_t c = 0; c < kResubmitConnections; ++c) {
    for (std::int32_t k = 0; k < run.mix.window; ++k) {
      send_resubmit(*conns[c]);
    }
  }
  send_fresh(*conns.back());

  bool broken = false;
  while (!pending.empty() && !broken) {
    const std::int64_t now = run.tracer.now_ns();
    if (now > give_up_ns) break;
    if (trace && !tracing && now >= half_ns) {
      // Second half of a traced run: read the program's instruments at the
      // switch, then trace everything until the window closes.
      stats_before = setup.rig->server().stats_json();
      pool_before = pool_counters();
      qbp::prof::reset();
      qbp::prof::set_enabled(true);
      run.tracer.set_enabled(true);
      tracing = true;
    }
    std::vector<pollfd> fds;
    for (Connection* conn : conns) {
      fds.push_back({conn->fd,
                     static_cast<short>(POLLIN | (conn->out.empty() ? 0 : POLLOUT)),
                     0});
    }
    if (::poll(fds.data(), fds.size(), 50) < 0 && errno != EINTR) break;
    for (std::size_t c = 0; c < conns.size(); ++c) {
      Connection& conn = *conns[c];
      if ((fds[c].revents & POLLOUT) != 0 && !conn.flush()) broken = true;
      if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const bool alive = conn.receive([&](std::uint8_t type,
                                          std::string_view payload) {
        const std::int64_t at = run.tracer.now_ns();
        service::JobResult result;
        std::string why;
        const bool decoded =
            decode_reply(type, payload, conn.binary, result, why);
        const auto found = pending.find(result.id);
        if (found == pending.end()) {
          run.outcomes.fail(&Outcomes::error, "serve: unmatched reply " + why);
          return;
        }
        const Pending entry = std::move(found->second);
        pending.erase(found);
        const double ms = static_cast<double>(at - entry.sent_ns) / 1e6;
        const char* span = "serve.job.exact";
        if (!decoded) {
          run.outcomes.fail(result.status == "rejected" ? &Outcomes::rejected
                                                        : &Outcomes::error,
                            "serve " + result.id + ": " + why);
        } else if (entry.kind == Pending::Kind::kExact) {
          const service::JobResult& primed = setup.primed[entry.design];
          if (result.status == "ok" && result.assignment == primed.assignment &&
              same_bits(result.objective, primed.objective)) {
            run.outcomes.ok++;
          } else {
            run.outcomes.fail(&Outcomes::wrong,
                              "serve " + result.id + ": differs from primed");
          }
        } else if (objective_matches(*entry.problem, result)) {
          run.outcomes.ok++;
        } else {
          run.outcomes.fail(result.status == "ok" ? &Outcomes::wrong
                                                  : &Outcomes::infeasible,
                            "serve " + result.id + ": status " +
                                result.status);
        }
        if (entry.kind == Pending::Kind::kFresh) {
          span = "serve.job.fresh";
          if (tracing) traced_fresh++;
          cold_ms.add(tracing, ms);
          if (decoded) cold_solve_s.add(tracing, result.solve_s);
        } else {
          if (entry.kind == Pending::Kind::kEco) {
            span = "serve.job.eco";
            if (result.warm_start) warm_answers++;
          }
          resubmit_ms.add(tracing, ms);
          const std::size_t slice =
              static_cast<std::size_t>((at - start_ns) / kSecond);
          if (slice < slices.size()) slices[slice]++;
        }
        run.tracer.record(span, entry.sent_ns, at, entry.number);
        if (at < end_ns) {
          if (conn.binary) {
            send_resubmit(conn);
          } else {
            send_fresh(conn);
          }
        }
      });
      if (!alive) broken = true;
      if (!conn.out.empty() && !conn.flush()) broken = true;
    }
  }
  run.tracer.set_enabled(false);
  qbp::prof::set_enabled(false);
  for (const auto& [id, entry] : pending) {
    run.outcomes.fail(&Outcomes::missing, "serve " + id + ": no reply");
  }

  resubmit_ms.write(run.out, "latency_ms");
  cold_ms.write(run.out, "cold_latency_ms");
  cold_solve_s.write(run.out, "cold_solve_s");
  Value mix = Value::object();
  mix.set("eco_every", run.mix.eco_every);
  mix.set("window", static_cast<std::int64_t>(run.mix.window));
  mix.set("primed", static_cast<std::int64_t>(run.mix.primed));
  run.out.set("mix", std::move(mix));
  Value per_slice = Value::array();
  for (const std::int64_t count : slices) per_slice.push_back(count);
  run.out.set("reply_slices", std::move(per_slice));
  run.out.set("traced_from_slice", static_cast<std::int64_t>(traced_from));
  if (!trace) return;

  Value layers = Value::object();
  layers.set("prof", prof_table());
  layers.set("pool_before", pool_before);
  layers.set("pool_after", pool_counters());
  layers.set("stats_before", stats_before);
  layers.set("stats_after", setup.rig->server().stats_json());
  layers.set("eco_sent", eco_sent);
  layers.set("eco_warm_answers", warm_answers);
  layers.set("fresh_jobs", traced_fresh);
  run.tracer.set_enabled(true);
  replay(run, setup, sample_exact, sample_eco, sample_fresh);
  run.tracer.set_enabled(false);
  run.out.set("layers", std::move(layers));
}

}  // namespace perfbench
