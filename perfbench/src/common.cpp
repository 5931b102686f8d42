#include "common.hpp"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cmath>
#include <fstream>
#include <latch>
#include <sstream>
#include <thread>
#include <unordered_map>

namespace perfbench {

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  Rng rng(seed * 0x100000001b3ull + stream * 0x9e3779b97f4a7c15ull + 1);
  return rng.next();
}

std::uint64_t fnv1a(std::uint64_t hash, const std::string& text) {
  for (const char ch : text)
    hash = (hash ^ static_cast<unsigned char>(ch)) * 1099511628211ull;
  return hash;
}

void Verification::expect(bool ok, const std::string& what) {
  ++checks;
  if (ok) return;
  ++mismatches;
  if (first_mismatches.size() < 8) first_mismatches.push_back(what);
}

namespace {
// The span a thread has open (parent of its next span) and the step it is
// replaying. One tracer is live at a time, so plain thread_locals suffice.
thread_local std::uint64_t t_parent = 0;
thread_local std::uint64_t t_step = 0;
std::atomic<std::uint64_t> g_next_span{1};
}  // namespace

Tracer::Scope::Scope(Tracer* tracer, const char* name, long step)
    : tracer_(tracer) {
  if (tracer_ != nullptr) {
    span_.name = name;
    span_.id = g_next_span.fetch_add(1, std::memory_order_relaxed);
    span_.parent = t_parent;
    t_parent = span_.id;
    if (step >= 0) {
      step_root_ = true;
      saved_step_ = t_step;
      t_step = static_cast<std::uint64_t>(step);
    }
    span_.step = t_step;
  }
  start_ = Clock::now();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  const Clock::time_point end = Clock::now();
  span_.start_s = seconds_between(tracer_->epoch_, start_);
  span_.end_s = seconds_between(tracer_->epoch_, end);
  t_parent = span_.parent;
  if (step_root_) t_step = saved_step_;
  const std::lock_guard<std::mutex> lock(tracer_->mutex_);
  tracer_->spans_.push_back(span_);
}

std::vector<Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::vector<double> Tracer::durations_us(const std::string& name) const {
  std::vector<double> out;
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const Span& s : spans_)
    if (name == s.name) out.push_back((s.end_s - s.start_s) * 1e6);
  return out;
}

std::string Tracer::self_time_report() const {
  const std::vector<Span> all = spans();
  // Children of one span run on its thread, one after another, so the
  // covered part of the parent is the sum of their durations.
  std::unordered_map<std::uint64_t, double> child_s;
  for (const Span& s : all)
    if (s.parent != 0) child_s[s.parent] += s.end_s - s.start_s;
  std::map<std::string, std::pair<std::vector<double>, std::vector<double>>> by;
  for (const Span& s : all) {
    const double dur = s.end_s - s.start_s;
    const auto it = child_s.find(s.id);
    auto& [total, self] = by[s.name];
    total.push_back(dur * 1e6);
    self.push_back((dur - (it == child_s.end() ? 0.0 : it->second)) * 1e6);
  }
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(1);
  for (auto& [name, v] : by)
    out << "span " << name << " count=" << v.first.size()
        << " p50_us=" << median(v.first) << " self_p50_us=" << median(v.second)
        << "\n";
  return out.str();
}

void Tracer::write(const std::filesystem::path& path) const {
  std::ofstream out(path);
  out.precision(9);
  for (const Span& s : spans())
    out << "{\"name\": \"" << s.name << "\", \"start_s\": " << s.start_s
        << ", \"end_s\": " << s.end_s << ", \"id\": " << s.id
        << ", \"parent\": " << s.parent << ", \"step\": " << s.step << "}\n";
}

double Replay::steps_per_s() const { return median(round_steps_per_s); }

Replay run_closed_loop(std::size_t clients, std::size_t steps_per_client,
                       Tracer* tracer,
                       const std::function<bool(std::size_t, std::size_t)>& step) {
  std::vector<Replay> per_client(clients);
  const std::size_t rounds =
      std::min(kRounds, std::max<std::size_t>(1, steps_per_client));
  std::vector<Clock::time_point> round_end;
  round_end.reserve(rounds);
  const auto mark = [&]() noexcept { round_end.push_back(Clock::now()); };
  std::latch ready(static_cast<std::ptrdiff_t>(clients) + 1);
  std::barrier round_done(static_cast<std::ptrdiff_t>(clients), mark);
  Clock::time_point start;
  {
    std::vector<std::jthread> threads;
    for (std::size_t c = 0; c < clients; ++c)
      threads.emplace_back([&, c] {
        Replay& mine = per_client[c];
        mine.latency_s.reserve(steps_per_client);
        ready.arrive_and_wait();
        for (std::size_t r = 0; r < rounds; ++r) {
          for (std::size_t i = r * steps_per_client / rounds;
               i < (r + 1) * steps_per_client / rounds; ++i) {
            const Tracer::Scope scope(
                tracer, "step", static_cast<long>(c * steps_per_client + i));
            bool ok = false;
            try {
              ok = step(c, i);
            } catch (const std::exception&) {
              ok = false;
            }
            mine.latency_s.push_back(scope.elapsed());
            ++mine.attempted;
            if (!ok) ++mine.failed;
          }
          round_done.arrive_and_wait();
        }
      });
    start = Clock::now();
    ready.arrive_and_wait();
  }  // joins every client
  Replay all;
  for (std::size_t r = 0; r < rounds; ++r) {
    const std::size_t steps =
        clients * ((r + 1) * steps_per_client / rounds - r * steps_per_client / rounds);
    const double wall = seconds_between(r == 0 ? start : round_end[r - 1], round_end[r]);
    all.round_steps_per_s.push_back(wall > 0.0 ? static_cast<double>(steps) / wall : 0.0);
  }
  for (const Replay& r : per_client) {
    all.attempted += r.attempted;
    all.failed += r.failed;
    all.latency_s.insert(all.latency_s.end(), r.latency_s.begin(),
                         r.latency_s.end());
  }
  return all;
}

double median(std::vector<double> values) { return percentile(std::move(values), 0.5); }

double percentile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  return qdv::svc::sorted_percentile(values, q);
}

const std::vector<std::pair<std::string, std::string>>& layer_metric_units() {
  static const std::vector<std::pair<std::string, std::string>> units = {
      {"sim.generate_s", "s"},
      {"io.open_s", "s"},
      {"io.loaded_mb_per_step", "MB/step"},
      {"io.evictions_per_step", "1/step"},
      {"io.resident_mb", "MB"},
      {"core.plan_us", "us"},
      {"core.evaluate_us", "us"},
      {"core.bits_hit_ratio", "ratio"},
      {"core.brush_edit_us", "us"},
      {"core.brush_delta_ratio", "ratio"},
      {"core.track_us", "us"},
      {"bitmap.gather_us", "us"},
      {"bitmap.ids_us", "us"},
      {"bitmap.vector_ratio", "ratio"},
      {"agg.zoom_us", "us"},
      {"agg.pyramid_hit_ratio", "ratio"},
      {"parallel.task_p50_us", "us"},
      {"parallel.task_max_us", "us"},
      {"parallel.busy_frac", "ratio"},
      {"svc.exec_us", "us"},
      {"svc.queue_us", "us"},
      {"svc.coalesce_rate", "ratio"},
      {"svc.result_cache_hit_ratio", "ratio"},
      {"svc.wire_us", "us"},
      {"render.draw_us", "us"},
      {"trace.overhead_ratio", "ratio"},
  };
  return units;
}

namespace {
double ratio(double part, double whole) { return whole > 0.0 ? part / whole : 0.0; }
constexpr double kMiB = 1024.0 * 1024.0;
}  // namespace

void engine_counter_metrics(const qdv::core::EngineStats& b,
                            const qdv::core::EngineStats& a, std::size_t steps,
                            LayerMetrics& out) {
  const double n = static_cast<double>(std::max<std::size_t>(1, steps));
  out["io.loaded_mb_per_step"] =
      static_cast<double>(a.loaded_bytes - b.loaded_bytes) / kMiB / n;
  out["io.evictions_per_step"] =
      static_cast<double>(a.io_evictions - b.io_evictions) / n;
  out["io.resident_mb"] = static_cast<double>(a.resident_bytes) / kMiB;
  const double hits = static_cast<double>(a.hits - b.hits);
  out["core.bits_hit_ratio"] =
      ratio(hits, hits + static_cast<double>(a.misses - b.misses));
  const double vec = static_cast<double>(
      (a.positions_vector_calls - b.positions_vector_calls) +
      (a.hist1d_vector_calls - b.hist1d_vector_calls) +
      (a.hist2d_vector_calls - b.hist2d_vector_calls));
  const double scalar = static_cast<double>(
      (a.positions_scalar_calls - b.positions_scalar_calls) +
      (a.hist1d_scalar_calls - b.hist1d_scalar_calls) +
      (a.hist2d_scalar_calls - b.hist2d_scalar_calls));
  out["bitmap.vector_ratio"] = ratio(vec, vec + scalar);
  const double served = static_cast<double>(a.pyramid_served - b.pyramid_served);
  out["agg.pyramid_hit_ratio"] = ratio(
      served, served + static_cast<double>(a.pyramid_fallback - b.pyramid_fallback));
}

void load_columns(qdv::svc::QueryService& service, std::size_t timesteps) {
  const qdv::svc::QueryService::SessionId s = service.open_session("load");
  for (std::size_t t = 0; t < timesteps; ++t)
    for (const char* v : {"x", "y", "px", "py"}) {
      qdv::svc::Request r;
      r.kind = qdv::svc::RequestKind::kHistogram1D;
      r.timestep = t;
      r.var_x = v;
      service.execute(s, r);
    }
  service.close_session(s);
}

void service_counter_metrics(const qdv::svc::ServiceStats& b,
                             const qdv::svc::ServiceStats& a, LayerMetrics& out) {
  const double coalesced = static_cast<double>(a.coalesce_hits - b.coalesce_hits);
  const double cached =
      static_cast<double>(a.result_cache_hits - b.result_cache_hits);
  const double accepted =
      static_cast<double>(a.executed - b.executed) + coalesced + cached;
  out["svc.coalesce_rate"] = ratio(coalesced + cached, accepted);
  out["svc.result_cache_hit_ratio"] = ratio(cached, accepted);
  const double delta =
      static_cast<double>(a.brush_delta_evals - b.brush_delta_evals);
  out["core.brush_delta_ratio"] = ratio(
      delta, delta + static_cast<double>(a.brush_full_evals - b.brush_full_evals));
}

std::size_t steps_for(const Options& options, double nominal_steps_per_s,
                      std::size_t smoke_steps) {
  if (options.smoke) return smoke_steps;
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(options.seconds * nominal_steps_per_s)));
}

}  // namespace perfbench
