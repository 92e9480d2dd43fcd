#include "trace.hpp"

#include <sys/resource.h>

#include <fstream>

#include "util/parallel.hpp"
#include "util/prof.hpp"

namespace perfbench {

Tracer::Tracer(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

Tracer::Scope::Scope(Tracer& tracer, std::string_view name,
                     std::int64_t request) {
  if (!tracer.enabled_) return;
  tracer_ = &tracer;
  index_ = static_cast<std::int32_t>(tracer.spans_.size());
  const std::int32_t parent =
      tracer.open_.empty() ? -1 : tracer.open_.back();
  // A span inherits its parent's request when it names none itself.
  if (request < 0 && parent >= 0) {
    request = tracer.spans_[static_cast<std::size_t>(parent)].request;
  }
  tracer.spans_.push_back(
      Span{std::string(name), tracer.now_ns(), 0, parent, request});
  tracer.open_.push_back(index_);
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[static_cast<std::size_t>(index_)].end_ns = tracer_->now_ns();
  tracer_->open_.pop_back();
}

void Tracer::record(std::string_view name, std::int64_t start_ns,
                    std::int64_t end_ns, std::int64_t request) {
  if (!enabled_) return;
  spans_.push_back(Span{std::string(name), start_ns, end_ns, -1, request});
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::ofstream file(path);
  if (!file) return false;
  std::string line;
  for (std::size_t k = 0; k < spans_.size(); ++k) {
    const Span& span = spans_[k];
    qbp::json::Value row = qbp::json::Value::object();
    row.set("id", static_cast<std::int64_t>(k));
    row.set("name", span.name);
    row.set("start_ns", span.start_ns);
    row.set("end_ns", span.end_ns);
    row.set("parent", span.parent);
    row.set("request", span.request);
    line.clear();
    row.dump_to(line);
    file << line << '\n';
  }
  return static_cast<bool>(file);
}

void Outcomes::fail(std::int64_t Outcomes::*bucket, std::string note) {
  ++(this->*bucket);
  if (notes.size() < 8) notes.push_back(std::move(note));
}

qbp::json::Value Outcomes::to_json() const {
  qbp::json::Value out = qbp::json::Value::object();
  out.set("ok", ok);
  out.set("infeasible", infeasible);
  out.set("invalid", invalid);
  out.set("wrong", wrong);
  out.set("rejected", rejected);
  out.set("error", error);
  out.set("missing", missing);
  qbp::json::Value list = qbp::json::Value::array();
  for (const std::string& note : notes) list.push_back(note);
  out.set("notes", std::move(list));
  return out;
}

std::uint64_t derive(std::uint64_t seed, std::uint64_t tag) {
  // splitmix64 finalizer over the combined word.
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + tag + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

qbp::json::Value prof_table() {
  return qbp::prof::to_json(qbp::prof::snapshot());
}

qbp::json::Value pool_counters() {
  const qbp::par::Pool& pool = qbp::par::Pool::instance();
  qbp::json::Value out = qbp::json::Value::object();
  out.set("regions_run", static_cast<std::int64_t>(pool.regions_run()));
  out.set("regions_parallel",
          static_cast<std::int64_t>(pool.regions_parallel()));
  return out;
}

qbp::json::Value to_json_array(const std::vector<double>& values) {
  qbp::json::Value out = qbp::json::Value::array();
  for (const double value : values) out.push_back(value);
  return out;
}

void Samples::write(qbp::json::Value& out, const std::string& key) const {
  out.set(key, to_json_array(plain));
  out.set("traced_" + key, to_json_array(traced));
}

std::int64_t peak_rss_kib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::int64_t>(usage.ru_maxrss);
}

}  // namespace perfbench
