// explore: closed-loop analysts on the wire. kClients connections speak the
// line protocol over a unix socket to an in-process SocketServer in front
// of one QueryService over the 1M x 3 bench dataset (unlimited budget).
// Each client replays a seeded stream of distinct conditional requests —
// counts, 1D/2D histograms, small-selection ids, zoom/pan viewports — and
// a fifth of its steps come from a hot pool every client shares, so
// coalescing and the result cache see repeats.
#include <algorithm>
#include <cstdlib>
#include <memory>
#include <set>
#include <sstream>

#include "common.hpp"
#include "core/selection.hpp"
#include "svc/protocol.hpp"
#include "svc/server.hpp"

namespace perfbench {
namespace {

using namespace qdv;

constexpr std::size_t kClients = 3;  // below nproc (4): latency is service time
constexpr std::size_t kHotPool = 48;
constexpr double kHotFraction = 0.2;
constexpr std::size_t kWarmRequests = 96;
constexpr std::size_t kVerifyRequests = 48;
constexpr std::size_t kDecomposeEvery = 4;  // decompose every 4th step
// Calibrated so a run replays about --seconds of steps on a 4-vCPU host.
constexpr double kNominalStepsPerS = 1300.0;

enum Kind { kCount, kHist1, kHist2, kIds, kZoom1, kZoom2, kNumKinds };

/// Seeded generator of distinct conditional requests over one dataset.
class Generator {
 public:
  explicit Generator(const io::Dataset& ds) {
    for (std::size_t t = 0; t < ds.num_timesteps(); ++t) {
      std::map<std::string, std::pair<double, double>> d;
      for (const char* v : {"x", "y", "px", "py"}) d[v] = ds.table(t).domain(v);
      domains_.push_back(std::move(d));
    }
  }

  svc::WireRequest make(Rng& rng, int kind = -1) const {
    if (kind < 0) {
      const std::size_t roll = rng.below(100);
      kind = roll < 30 ? kCount : roll < 50 ? kHist1 : roll < 65 ? kHist2
           : roll < 75 ? kIds : roll < 90 ? kZoom1 : kZoom2;
    }
    svc::WireRequest wire;
    svc::Request& r = wire.request;
    r.priority = svc::Priority::kInteractive;
    r.timestep = rng.below(domains_.size());
    const auto& dom = domains_[r.timestep];
    switch (kind) {
      case kCount:
        r.kind = svc::RequestKind::kCount;
        r.query = condition(rng, dom);
        break;
      case kHist1: {
        static const char* vars[] = {"px", "x", "y", "py"};
        r.kind = svc::RequestKind::kHistogram1D;
        r.var_x = vars[rng.below(4)];
        r.nxbins = 64;
        r.query = condition(rng, dom);
        break;
      }
      case kHist2: {
        const bool xpx = rng.below(2) == 0;
        r.kind = svc::RequestKind::kHistogram2D;
        r.var_x = xpx ? "x" : "y";
        r.var_y = xpx ? "px" : "py";
        r.nxbins = r.nybins = 64;
        r.query = condition(rng, dom);
        break;
      }
      case kIds: {
        // A thin x slab of a hot beam: hundreds of rows at most.
        r.kind = svc::RequestKind::kIds;
        const auto [lo, hi] = dom.at("x");
        const double a = lo + rng.uniform() * 0.99 * (hi - lo);
        r.query = "x > " + format_double(a) + " && x < " +
                  format_double(a + 0.002 * (hi - lo)) + " && px > " +
                  format_double(px_threshold(rng, dom));
        break;
      }
      case kZoom1: {
        static const char* vars[] = {"px", "x", "y"};
        r.kind = svc::RequestKind::kZoom1D;
        r.var_x = vars[rng.below(3)];
        r.nxbins = 64;
        // One zoom in ten is deeper than the leaf level can carry: the
        // exact fallback.
        const double span = rng.below(10) == 0 ? 0.01 : 0.15 + 0.75 * rng.uniform();
        window(rng, dom.at(r.var_x), span, r.view_lo_x, r.view_hi_x);
        break;
      }
      default: {
        r.kind = svc::RequestKind::kZoom2D;
        r.var_x = "x";
        r.var_y = "px";
        r.nxbins = r.nybins = 32;
        window(rng, dom.at("x"), 0.3 + 0.6 * rng.uniform(), r.view_lo_x, r.view_hi_x);
        window(rng, dom.at("px"), 0.3 + 0.6 * rng.uniform(), r.view_lo_y, r.view_hi_y);
        break;
      }
    }
    return wire;
  }

 private:
  using Domains = std::map<std::string, std::pair<double, double>>;

  static double px_threshold(Rng& rng, const Domains& dom) {
    // Momentum is heavy-tailed: square the draw so most thresholds keep a
    // sizeable share of the background and some isolate the beams.
    const auto [lo, hi] = dom.at("px");
    const double u = rng.uniform();
    return lo + 0.5 * u * u * (hi - lo);
  }

  static std::string condition(Rng& rng, const Domains& dom) {
    const auto at = [&](const char* v, double f) {
      const auto [lo, hi] = dom.at(v);
      return format_double(lo + f * (hi - lo));
    };
    switch (rng.below(3)) {
      case 0:
        return "px > " + format_double(px_threshold(rng, dom));
      case 1: {
        const double a = 0.6 * rng.uniform();
        return "x > " + at("x", a) + " && x < " + at("x", a + 0.1 + 0.3 * rng.uniform());
      }
      default:
        return "y < " + at("y", 0.2 + 0.7 * rng.uniform()) + " && px > " +
               format_double(px_threshold(rng, dom));
    }
  }

  static void window(Rng& rng, std::pair<double, double> dom, double span_frac,
                     double& lo, double& hi) {
    const double span = (dom.second - dom.first) * span_frac;
    lo = dom.first + rng.uniform() * ((dom.second - dom.first) - span);
    hi = lo + span;
  }

  std::vector<Domains> domains_;
};

/// The number after ` key=` in a response body (0 when absent).
std::uint64_t field(const std::string& body, const std::string& key) {
  const std::string needle = key + "=";
  std::size_t pos = body.rfind(needle, 0) == 0 ? 0 : body.find(" " + needle);
  if (pos == std::string::npos) return 0;
  pos = body.find('=', pos) + 1;
  return std::strtoull(body.c_str() + pos, nullptr, 10);
}

std::vector<std::uint64_t> id_list(const std::string& body) {
  std::vector<std::uint64_t> ids;
  const std::size_t at = body.find(" ids=");
  if (at == std::string::npos) return ids;
  std::stringstream ss(body.substr(at + 5, body.find(' ', at + 5) - at - 5));
  std::string item;
  while (std::getline(ss, item, ','))
    if (!item.empty() && item != "...") ids.push_back(std::stoull(item));
  return ids;
}

class Explore final : public Workload {
 public:
  explicit Explore(const Options& o)
      : options_(o), steps_(steps_for(o, kNominalStepsPerS / kClients, 40)) {}

  Shape shape() const override {
    return options_.smoke ? Shape{20000, 3} : Shape{1000000, 3};
  }

  double open(const std::filesystem::path& dir) override {
    dir_ = dir;
    const Clock::time_point t0 = Clock::now();
    engine_ = std::make_unique<core::Engine>(core::Engine::open(dir));
    const double open_s = seconds_between(t0, Clock::now());
    service_ = std::make_unique<svc::QueryService>(*engine_);
    // Relative to the working directory: sun_path holds only 108 bytes.
    socket_ = std::filesystem::relative(dir) / "explore.sock";
    server_ = std::make_unique<svc::SocketServer>(*service_, socket_);
    server_->start();
    for (std::size_t c = 0; c < kClients; ++c) clients_.emplace_back(socket_);
    build_streams();
    return open_s;
  }

  void warm() override {
    // Load every column the stream touches, then run a warm-up stream of
    // its own (decodes index segments and pyramid levels).
    load_columns(*service_, engine_->num_timesteps());
    const svc::QueryService::SessionId s = service_->open_session("warm");
    Rng rng(mix_seed(options_.seed, 2));
    for (std::size_t i = 0; i < (options_.smoke ? 8 : kWarmRequests); ++i)
      service_->execute(s, generator_->make(rng).request);
    service_->close_session(s);
  }

  Verification verify(bool corrupt_expected) override {
    Verification v;
    const core::Engine scan(io::Dataset::open(dir_), EvalMode::kScan);
    svc::SocketClient wire(socket_);
    const svc::QueryService::SessionId s = service_->open_session("verify");
    Rng rng(mix_seed(options_.seed, 3));
    for (std::size_t i = 0; i < (options_.smoke ? 12 : kVerifyRequests); ++i) {
      svc::WireRequest w = generator_->make(rng, static_cast<int>(i % kNumKinds));
      w.ids_limit = 1 << 20;
      const svc::Request& r = w.request;
      const std::string line = svc::format_request_line(w);
      std::string body;
      const bool wire_ok = svc::parse_response_line(wire.request(line), body);
      const svc::ResultPtr got = service_->execute(s, r);
      v.expect(wire_ok && got->status == svc::Status::kOk, "status: " + line);
      if (!wire_ok || got->status != svc::Status::kOk) continue;
      const core::Selection sel = r.query.empty() ? scan.all() : scan.select(r.query);
      switch (r.kind) {
        case svc::RequestKind::kCount: {
          const std::uint64_t want = sel.count(r.timestep) + (corrupt_expected ? 1 : 0);
          corrupt_expected = false;
          v.expect(got->count == want && field(body, "count") == want, "count: " + line);
          break;
        }
        case svc::RequestKind::kIds: {
          const std::vector<std::uint64_t> want = sel.ids(r.timestep);
          v.expect(got->ids == want && id_list(body) == want, "ids: " + line);
          break;
        }
        case svc::RequestKind::kHistogram1D: {
          const Histogram1D want = sel.histogram1d(r.timestep, r.var_x, r.nxbins);
          v.expect(got->hist1d.counts == want.counts &&
                       got->hist1d.bins.edges() == want.bins.edges() &&
                       field(body, "nonempty") == want.nonempty_bins() &&
                       field(body, "maxbin") == want.max_count(),
                   "hist1: " + line);
          break;
        }
        case svc::RequestKind::kHistogram2D: {
          const Histogram2D want =
              sel.histogram2d(r.timestep, r.var_x, r.var_y, r.nxbins, r.nybins);
          v.expect(got->hist2d.counts == want.counts &&
                       got->hist2d.xbins.edges() == want.xbins.edges() &&
                       got->hist2d.ybins.edges() == want.ybins.edges() &&
                       field(body, "maxbin") == want.max_count(),
                   "hist2: " + line);
          break;
        }
        case svc::RequestKind::kZoom1D: {
          const core::Zoom1DResult want = sel.zoom_histogram1d(
              r.timestep, r.var_x, r.view_lo_x, r.view_hi_x, r.nxbins,
              core::ZoomMode::kExact);
          v.expect(got->hist1d.counts == want.hist.counts &&
                       got->hist1d.bins.edges() == want.hist.bins.edges() &&
                       field(body, "maxbin") == want.hist.max_count(),
                   "zoom1: " + line);
          break;
        }
        default: {
          const core::Zoom2DResult want = sel.zoom_histogram2d(
              r.timestep, r.var_x, r.var_y, r.view_lo_x, r.view_hi_x,
              r.view_lo_y, r.view_hi_y, r.nxbins, r.nybins, core::ZoomMode::kExact);
          v.expect(got->hist2d.counts == want.hist.counts &&
                       got->hist2d.xbins.edges() == want.hist.xbins.edges() &&
                       got->hist2d.ybins.edges() == want.hist.ybins.edges(),
                   "zoom2: " + line);
          break;
        }
      }
    }
    service_->close_session(s);
    return v;
  }

  Replay replay(Tracer* tracer) override {
    const core::EngineStats e0 = engine_->stats();
    const svc::ServiceStats s0 = service_->stats();
    wire_us_.assign(kClients * steps_, 0.0);
    const auto step = [&](std::size_t c, std::size_t i) {
      const Tracer::Scope span(tracer, "svc.wire");
      std::string body;
      const bool ok = svc::parse_response_line(clients_[c].request(lines_[c][i]), body);
      wire_us_[c * steps_ + i] = span.elapsed() * 1e6;
      return ok;
    };
    Replay out = run_closed_loop(kClients, steps_, tracer, step);
    engine_counter_metrics(e0, engine_->stats(), out.attempted, counters_);
    service_counter_metrics(s0, service_->stats(), counters_);
    return out;
  }

  void decompose(Tracer& tracer) override {
    // The same requests against in-process twins on their own engines: a
    // service (exec and queue time, and the wire share by difference) and a
    // bare engine whose plan, evaluation and gather calls are timed apart.
    const core::Engine twin_engine = core::Engine::open(dir_);
    svc::QueryService twin(twin_engine);
    const core::Engine probe = core::Engine::open(dir_);
    exec_us_.clear();
    queue_us_.clear();
    wire_diff_us_.clear();
    std::vector<svc::QueryService::SessionId> sessions;
    for (std::size_t c = 0; c < kClients; ++c) sessions.push_back(twin.open_session());
    std::mutex seen_mutex;
    std::set<std::string> planned, evaluated;
    const auto first_time = [&](std::set<std::string>& seen, const std::string& key) {
      const std::lock_guard<std::mutex> lock(seen_mutex);
      return seen.insert(key).second;
    };
    std::mutex out_mutex;
    run_closed_loop(kClients, steps_, nullptr, [&](std::size_t c, std::size_t i) {
      if (i % kDecomposeEvery != 0) return true;
      const svc::Request& r = requests_[c][i];
      const long step = static_cast<long>(c * steps_ + i);
      const Tracer::Scope root(&tracer, "decompose", step);
      double wall_us = 0.0;
      svc::ResultPtr res;
      {
        const Tracer::Scope span(&tracer, "svc.execute");
        res = twin.execute(sessions[c], r);
        wall_us = span.elapsed() * 1e6;
      }
      {
        const std::lock_guard<std::mutex> lock(out_mutex);
        if (res->served == svc::Served::kExecuted) {
          exec_us_.push_back(res->exec_seconds * 1e6);
          queue_us_.push_back(std::max(0.0, wall_us - res->exec_seconds * 1e6));
        }
        wire_diff_us_.push_back(wire_us_[c * steps_ + i] - wall_us);
      }
      std::shared_ptr<const core::Selection> sel;
      if (!r.query.empty() && first_time(planned, r.query)) {
        const Tracer::Scope span(&tracer, "core.plan");
        sel = probe.select_shared(r.query);
      } else {
        sel = probe.select_shared(r.query);
      }
      if (!r.query.empty() &&
          first_time(evaluated, r.query + "@" + std::to_string(r.timestep))) {
        const Tracer::Scope span(&tracer, "core.evaluate");
        sel->bits(r.timestep);
      }
      switch (r.kind) {
        case svc::RequestKind::kHistogram1D: {
          const Tracer::Scope span(&tracer, "bitmap.gather");
          sel->histogram1d(r.timestep, r.var_x, r.nxbins);
          break;
        }
        case svc::RequestKind::kHistogram2D: {
          const Tracer::Scope span(&tracer, "bitmap.gather");
          sel->histogram2d(r.timestep, r.var_x, r.var_y, r.nxbins, r.nybins);
          break;
        }
        case svc::RequestKind::kIds: {
          const Tracer::Scope span(&tracer, "bitmap.ids");
          sel->ids(r.timestep);
          break;
        }
        case svc::RequestKind::kZoom1D: {
          const Tracer::Scope span(&tracer, "agg.zoom");
          sel->zoom_histogram1d(r.timestep, r.var_x, r.view_lo_x, r.view_hi_x, r.nxbins);
          break;
        }
        case svc::RequestKind::kZoom2D: {
          const Tracer::Scope span(&tracer, "agg.zoom");
          sel->zoom_histogram2d(r.timestep, r.var_x, r.var_y, r.view_lo_x,
                                r.view_hi_x, r.view_lo_y, r.view_hi_y, r.nxbins,
                                r.nybins);
          break;
        }
        default:
          break;
      }
      return res->status == svc::Status::kOk;
    });
  }

  void layer_metrics(const Tracer& tracer, LayerMetrics& out) override {
    for (const auto& [k, v] : counters_) out[k] = v;
    out["core.plan_us"] = median(tracer.durations_us("core.plan"));
    out["core.evaluate_us"] = median(tracer.durations_us("core.evaluate"));
    out["bitmap.gather_us"] = median(tracer.durations_us("bitmap.gather"));
    out["bitmap.ids_us"] = median(tracer.durations_us("bitmap.ids"));
    out["agg.zoom_us"] = median(tracer.durations_us("agg.zoom"));
    out["svc.exec_us"] = median(exec_us_);
    out["svc.queue_us"] = median(queue_us_);
    out["svc.wire_us"] = median(wire_diff_us_);
  }

  void close() override {
    clients_.clear();
    if (server_) server_->stop();
    server_.reset();
    service_.reset();
    engine_.reset();
  }

  const core::Engine& engine() const override { return *engine_; }

  std::vector<std::string> stamp() const override {
    return {"\"clients\": " + std::to_string(kClients),
            "\"hot_pool\": " + std::to_string(kHotPool),
            "\"hot_fraction\": " + std::to_string(kHotFraction)};
  }

  std::uint64_t input_digest() const override {
    std::uint64_t h = kFnvBasis;
    for (const auto& lines : lines_)
      for (const std::string& l : lines) h = fnv1a(h, l);
    return h;
  }

 private:
  void build_streams() {
    generator_ = std::make_unique<Generator>(engine_->dataset());
    Rng hot_rng(mix_seed(options_.seed, 1));
    std::vector<svc::WireRequest> hot;
    for (std::size_t i = 0; i < kHotPool; ++i) hot.push_back(generator_->make(hot_rng));
    lines_.assign(kClients, {});
    requests_.assign(kClients, {});
    for (std::size_t c = 0; c < kClients; ++c) {
      Rng rng(mix_seed(options_.seed, 100 + c));
      for (std::size_t i = 0; i < steps_; ++i) {
        const svc::WireRequest w = rng.uniform() < kHotFraction
                                       ? hot[rng.below(hot.size())]
                                       : generator_->make(rng);
        lines_[c].push_back(svc::format_request_line(w));
        requests_[c].push_back(w.request);
      }
    }
  }

  Options options_;
  std::size_t steps_;
  std::filesystem::path dir_;
  std::filesystem::path socket_;
  std::unique_ptr<core::Engine> engine_;
  std::unique_ptr<svc::QueryService> service_;
  std::unique_ptr<svc::SocketServer> server_;
  std::vector<svc::SocketClient> clients_;
  std::unique_ptr<Generator> generator_;
  std::vector<std::vector<std::string>> lines_;
  std::vector<std::vector<svc::Request>> requests_;
  std::vector<double> wire_us_;
  std::vector<double> exec_us_, queue_us_, wire_diff_us_;
  LayerMetrics counters_;
};

}  // namespace

std::unique_ptr<Workload> make_explore(const Options& options) {
  return std::make_unique<Explore>(options);
}

}  // namespace perfbench
