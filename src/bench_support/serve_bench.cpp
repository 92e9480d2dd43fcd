#include "bench_support/serve_bench.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <utility>

#include "bench_support/circuits.hpp"
#include "bench_support/eco_stream.hpp"
#include "core/problem_io.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/wire.hpp"
#include "util/annotations.hpp"
#include "util/check.hpp"
#include "util/hash.hpp"
#include "util/json.hpp"
#include "util/timer.hpp"
#include "util/wire.hpp"

namespace qbp {

namespace {

/// One pre-encoded request: the NDJSON line, or a binary frame already
/// split into (type, payload) so the timed loop calls handle_frame
/// directly, like the serve loop does after FrameBuffer::next.
struct Encoded {
  std::string line;
  std::uint8_t frame_type = 0;
  std::string frame_payload;
};

/// Thread-safe reply collector shared with the server's worker threads.
class ReplyBox {
 public:
  void push(std::string reply) {
    const sync::MutexLock lock(mutex_);
    replies_.push_back(std::move(reply));
    cv_.notify_all();
  }

  void wait_for(std::size_t count) {
    sync::MutexLock lock(mutex_);
    while (replies_.size() < count) cv_.wait(mutex_);
  }

  [[nodiscard]] std::vector<std::string> take() {
    const sync::MutexLock lock(mutex_);
    return std::move(replies_);
  }

 private:
  sync::Mutex mutex_;
  sync::CondVar cv_;
  std::vector<std::string> replies_ QBP_GUARDED_BY(mutex_);
};

service::Request make_submit(const ServeBenchConfig& config,
                             bool use_cache) {
  service::Request request;
  request.type = service::RequestType::kSubmit;
  request.solver.method = "qbp";
  request.solver.starts = config.starts;
  request.solver.iterations = config.iterations;
  request.solver.seed = 7;
  request.solver.inner_threads = config.inner_threads;
  // Pinned explicitly so the spec fingerprint (and with it the exact-hit
  // behaviour) is independent of the build's validation default.
  request.solver.validate = false;
  request.solver.presolve = false;
  request.cache = use_cache;
  request.warm_start = use_cache;
  return request;
}

/// Decode one reply under either framing.  Returns false unless it is a
/// well-formed "result".
bool decode_reply(const std::string& reply, bool binary,
                  service::JobResult& result) {
  if (binary) {
    wire::FrameView frame;
    std::string error;
    if (wire::peek_frame(reply, frame, error) != wire::FrameStatus::kFrame ||
        frame.frame_size != reply.size()) {
      return false;
    }
    if (static_cast<service::WireMsg>(frame.type) !=
        service::WireMsg::kResult) {
      return false;
    }
    return service::decode_result(frame.payload, result, error);
  }
  json::Value value;
  if (!json::parse(reply, value).ok) return false;
  if (value.get_string("type") != "result") return false;
  return service::result_from_json(value, result).ok;
}

/// Fold one result's non-timing fields into the canonical digest stream.
void absorb_result(const service::JobResult& result, StreamHasher& hasher) {
  hasher.absorb_bytes(result.id);
  hasher.absorb_bytes(result.status);
  hasher.absorb_bytes(result.solver);
  hasher.absorb(static_cast<std::int64_t>(result.feasible ? 1 : 0));
  hasher.absorb(result.objective);
  hasher.absorb(result.best_penalized);
  hasher.absorb(static_cast<std::int64_t>(result.assignment.size()));
  for (const std::int32_t part : result.assignment) hasher.absorb(part);
  hasher.absorb(result.starts_run);
  hasher.absorb(static_cast<std::int64_t>(result.cache_hit ? 1 : 0));
  hasher.absorb(static_cast<std::int64_t>(result.warm_start ? 1 : 0));
  hasher.absorb(result.eco_repairs);
  hasher.absorb(result.eco_edits);
}

/// Render `request` for one framing.  Binary submissions carry the parsed
/// problem struct (request.problem), exercising the zero-copy decode path.
Encoded encode(const service::Request& request, bool binary) {
  Encoded out;
  if (!binary) {
    out.line = service::format_request(request);
    return out;
  }
  std::string frame;
  service::encode_request_frame(request, frame);
  wire::FrameView view;
  std::string error;
  QBP_CHECK(wire::peek_frame(frame, view, error) == wire::FrameStatus::kFrame);
  out.frame_type = view.type;
  out.frame_payload = std::string(view.payload);
  return out;
}

ServeRow run_batch(const std::string& scenario, bool binary,
                   std::int32_t workers, const std::vector<Encoded>& prime,
                   const std::vector<Encoded>& batch) {
  service::ServerOptions options;
  options.workers = workers;
  options.queue_capacity = batch.size() + prime.size() + 4;
  options.cache_capacity = 64;
  service::Server server(options);

  ReplyBox box;
  const auto client = std::make_shared<service::Connection>(
      [&box](const std::string& reply) { box.push(reply); },
      binary ? service::Framing::kBinary : service::Framing::kNdjson);
  const auto dispatch = [&](const Encoded& request) {
    if (binary) {
      server.handle_frame(request.frame_type, request.frame_payload, client);
    } else {
      server.handle_line(request.line, client);
    }
  };

  for (const Encoded& request : prime) dispatch(request);
  box.wait_for(prime.size());
  (void)box.take();  // priming replies are not part of the digest

  const Timer timer;
  for (const Encoded& request : batch) dispatch(request);
  box.wait_for(batch.size());
  const double seconds = timer.seconds();
  server.drain();

  // Decode, then hash in id order: worker completion order is not part of
  // the contract, the per-job payloads are.
  const std::vector<std::string> replies = box.take();
  bool ok = replies.size() == batch.size();
  std::vector<service::JobResult> results;
  for (const std::string& reply : replies) {
    service::JobResult result;
    if (decode_reply(reply, binary, result)) {
      results.push_back(std::move(result));
    } else {
      ok = false;
    }
  }
  std::sort(results.begin(), results.end(),
            [](const service::JobResult& a, const service::JobResult& b) {
              return a.id < b.id;
            });
  StreamHasher hasher;
  std::int32_t cache_hits = 0;
  std::int32_t warm_hits = 0;
  for (const service::JobResult& result : results) {
    absorb_result(result, hasher);
    if (result.cache_hit) ++cache_hits;
    if (result.warm_start) ++warm_hits;
  }

  ServeRow row;
  row.scenario = scenario;
  row.framing = binary ? "binary" : "ndjson";
  row.workers = workers;
  row.jobs = static_cast<std::int32_t>(batch.size());
  row.seconds = seconds;
  row.jobs_per_sec = seconds > 0.0 ? row.jobs / seconds : 0.0;
  row.results_hash = hasher.finish().to_hex();
  row.cache_hits = cache_hits;
  row.warm_hits = warm_hits;
  row.ok = ok;
  return row;
}

}  // namespace

std::vector<ServeRow> run_serve_bench(const ServeBenchConfig& config) {
  // One canonical problem text; BOTH framings submit the same value
  // (binary parses it back into the struct it ships), so replies must be
  // bit-identical across framings -- the gate compares the digests.
  const PartitionProblem base = make_scaling_problem(config.n, 7);
  std::string base_text;
  {
    std::ostringstream out;
    write_problem(out, base);
    base_text = out.str();
  }
  const auto parse_text = [](const std::string& text) {
    auto problem = std::make_shared<PartitionProblem>();
    std::istringstream in(text);
    QBP_CHECK(read_problem(in, *problem).ok);
    return problem;
  };
  const auto parsed_base = parse_text(base_text);

  std::vector<std::string> variant_texts;
  for (std::int32_t v = 1; v <= config.warm_jobs; ++v) {
    const PartitionProblem variant = make_eco_variant(base, 7, v);
    std::ostringstream out;
    write_problem(out, variant);
    variant_texts.push_back(out.str());
  }

  std::vector<ServeRow> rows;
  for (const bool binary : {false, true}) {
    const auto submit = [&](const std::string& id, const std::string& text,
                            bool use_cache) {
      service::Request request = make_submit(config, use_cache);
      request.id = id;
      if (binary) {
        request.problem = parse_text(text);
      } else {
        request.problem_text = text;
      }
      return encode(request, binary);
    };

    for (const std::int32_t workers : config.worker_counts) {
      // cold: per-request cache opt-out, so every job runs the full
      // decode + parse + solve path.
      std::vector<Encoded> cold;
      for (std::int32_t k = 0; k < config.jobs; ++k) {
        cold.push_back(submit("cold-" + std::to_string(1000 + k), base_text,
                              /*use_cache=*/false));
      }
      rows.push_back(run_batch("cold", binary, workers, {}, cold));

      // exact: primed off-timer; every timed job is a fingerprint hit, so
      // the row isolates protocol + dispatch overhead (the 3x headline).
      std::vector<Encoded> prime = {
          submit("prime", base_text, /*use_cache=*/true)};
      std::vector<Encoded> exact;
      for (std::int32_t k = 0; k < config.jobs; ++k) {
        exact.push_back(submit("exact-" + std::to_string(1000 + k),
                               base_text, /*use_cache=*/true));
      }
      rows.push_back(run_batch("exact", binary, workers, prime, exact));
    }

    // warm: distinct ECO variants of the primed base; single worker keeps
    // the cache insertion order (and thus every warm result) deterministic.
    std::vector<Encoded> prime = {
        submit("prime", base_text, /*use_cache=*/true)};
    std::vector<Encoded> warm;
    for (std::size_t v = 0; v < variant_texts.size(); ++v) {
      warm.push_back(submit("warm-" + std::to_string(1000 + v),
                            variant_texts[v], /*use_cache=*/true));
    }
    rows.push_back(run_batch("warm", binary, /*workers=*/1, prime, warm));
  }

  for (const ServeRow& row : rows) {
    std::fprintf(stderr,
                 "  %s/%s workers=%d: %d jobs in %.3fs (%.0f/s, %d hits, "
                 "%d warm)%s\n",
                 row.scenario.c_str(), row.framing.c_str(), row.workers,
                 row.jobs, row.seconds, row.jobs_per_sec, row.cache_hits,
                 row.warm_hits, row.ok ? "" : "  NOT OK");
  }
  return rows;
}

}  // namespace qbp
