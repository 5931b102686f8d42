// linked-views: writes beside reads. kSessions in-process QueryService
// sessions each hold a brush over the 1M x 3 bench dataset, and one analyst
// thread steps them in turn, so each session's edits land between the
// other sessions' reads. Every step is one brush edit (refine, invert or
// combine with a second brush, cycling) followed by re-querying the brush's
// linked views — a count, a 1D histogram and two 2D histograms — plus an
// unbrushed overview zoom of x x px that pans from step to step, all
// submitted together, and drawing the parallel-coordinates histogram layer
// from the two 2D answers. Every kCycle steps the brush is dropped and
// recreated from a fresh predicate, which keeps its composed predicate
// short. The library's pool runs kPoolThreads workers, so with the analyst
// thread fewer threads are runnable than nproc, and another busy process on
// the host does not turn step latency into a measure of the scheduler.
#include <algorithm>
#include <memory>
#include <string>

#include "common.hpp"
#include "core/selection.hpp"
#include "render/pc_plot.hpp"

namespace perfbench {
namespace {

using namespace qdv;

constexpr std::size_t kSessions = 3;     // stepped in turn by one thread
constexpr std::size_t kPoolThreads = 2;  // + the analyst thread, below nproc (4)
constexpr std::size_t kCycle = 12;       // steps between brush resets
constexpr std::size_t kVerifySteps = 2 * kCycle;
constexpr std::size_t kDecomposeEvery = 4;
constexpr double kNominalStepsPerS = 65.0;

/// One scripted step: the edit and the composed predicate it leaves.
struct Edit {
  enum class Kind { kReset, kRefine, kInvert, kCombine };
  Kind kind = Kind::kReset;
  std::string text;  // reset: the new predicate; refine: the extra one
  core::Brush::CombineOp op = core::Brush::CombineOp::kAnd;
  std::string composed;  // the brush's predicate after this edit
};

struct Script {
  std::size_t timestep = 0;
  std::string aux;  // the second brush every combine uses
  std::vector<Edit> edits;
};

/// The views every step re-queries, in submission order.
enum View { kCountView, kPyView, kXPxView, kPxYView, kNumViews };

svc::Request view_request(View view, std::size_t t) {
  svc::Request r;
  r.brush = "b";
  r.timestep = t;
  r.priority = svc::Priority::kInteractive;
  // 32x32 2D views: the bin count a parallel-coordinates pair draws.
  r.nxbins = r.nybins = view == kPyView ? 64 : 32;
  switch (view) {
    case kCountView:
      r.kind = svc::RequestKind::kCount;
      break;
    case kPyView:
      r.kind = svc::RequestKind::kHistogram1D;
      r.var_x = "py";
      break;
    case kXPxView:
      r.kind = svc::RequestKind::kHistogram2D;
      r.var_x = "x";
      r.var_y = "px";
      break;
    default:
      r.kind = svc::RequestKind::kHistogram2D;
      r.var_x = "px";
      r.var_y = "y";
      break;
  }
  return r;
}

class LinkedViews final : public Workload {
 public:
  explicit LinkedViews(const Options& o)
      : options_(o), steps_(steps_for(o, kNominalStepsPerS / kSessions, 2 * kCycle)) {}

  Shape shape() const override {
    return options_.smoke ? Shape{20000, 3} : Shape{1000000, 3};
  }

  /// The context view beside the brushed ones: an unconditioned zoom of
  /// the x x px plane, panning over a lattice of 6 windows so pans revisit
  /// (pyramid-served, and result-cached on a revisit).
  svc::Request overview(std::size_t t, std::size_t i) const {
    const auto [xlo, xhi] = engine_->dataset().table(t).domain("x");
    const auto [plo, phi] = engine_->dataset().table(t).domain("px");
    svc::Request r;
    r.kind = svc::RequestKind::kZoom2D;
    r.timestep = t;
    r.priority = svc::Priority::kInteractive;
    r.var_x = "x";
    r.var_y = "px";
    r.nxbins = r.nybins = 32;
    r.view_lo_x = xlo + 0.08 * static_cast<double>(i % 6) * (xhi - xlo);
    r.view_hi_x = r.view_lo_x + 0.5 * (xhi - xlo);
    r.view_lo_y = plo;
    r.view_hi_y = plo + 0.6 * (phi - plo);
    return r;
  }

  double open(const std::filesystem::path& dir) override {
    dir_ = dir;
    const Clock::time_point t0 = Clock::now();
    engine_ = std::make_unique<core::Engine>(core::Engine::open(dir));
    const double open_s = seconds_between(t0, Clock::now());
    service_ = std::make_unique<svc::QueryService>(*engine_);
    for (const char* v : {"x", "y", "px", "py"})
      domains_[v] = engine_->dataset().global_domain(v);
    scripts_.clear();
    for (std::size_t s = 0; s < kSessions; ++s)
      scripts_.push_back(make_script(mix_seed(options_.seed, 200 + s), s, steps_));
    sessions_.clear();
    for (std::size_t s = 0; s < kSessions; ++s) {
      sessions_.push_back(service_->open_session("linked-" + std::to_string(s)));
      service_->brush_create(sessions_.back(), "aux", scripts_[s].aux);
    }
    return open_s;
  }

  void warm() override {
    load_columns(*service_, engine_->num_timesteps());
    // One full warm-up cycle per timestep on a throwaway session.
    const svc::QueryService::SessionId s = service_->open_session("warm");
    const Script warm_script =
        make_script(mix_seed(options_.seed, 2), 0, options_.smoke ? 4 : kCycle);
    service_->brush_create(s, "aux", warm_script.aux);
    for (std::size_t t = 0; t < engine_->num_timesteps(); ++t)
      for (const Edit& e : warm_script.edits) {
        apply(s, e);
        for (int v = 0; v < kNumViews; ++v)
          service_->execute(s, view_request(static_cast<View>(v), t));
        service_->execute(s, overview(t, 0));
      }
    service_->close_session(s);
  }

  Verification verify(bool corrupt_expected) override {
    Verification v;
    const core::Engine scan(io::Dataset::open(dir_), EvalMode::kScan);
    const svc::QueryService::SessionId s = service_->open_session("verify");
    const Script script = make_script(mix_seed(options_.seed, 3), 0,
                                      options_.smoke ? kCycle : kVerifySteps);
    service_->brush_create(s, "aux", script.aux);
    for (std::size_t i = 0; i < script.edits.size(); ++i) {
      const Edit& e = script.edits[i];
      const std::size_t t = i % engine_->num_timesteps();
      const std::uint64_t epoch = apply(s, e);
      v.expect(epoch > 0, "edit: " + e.composed);
      const core::Selection want = scan.select(e.composed);
      for (int k = 0; k < kNumViews; ++k) {
        const svc::Request r = view_request(static_cast<View>(k), t);
        const svc::ResultPtr got = service_->execute(s, r);
        bool ok = got->status == svc::Status::kOk && got->brush_epoch == epoch;
        if (ok && r.kind == svc::RequestKind::kCount) {
          ok = got->count == want.count(t) + (corrupt_expected ? 1 : 0);
          corrupt_expected = false;
        } else if (ok && r.kind == svc::RequestKind::kHistogram1D) {
          const Histogram1D h = want.histogram1d(t, r.var_x, r.nxbins);
          ok = got->hist1d.counts == h.counts &&
               got->hist1d.bins.edges() == h.bins.edges();
        } else if (ok) {
          const Histogram2D h = want.histogram2d(t, r.var_x, r.var_y, r.nxbins, r.nybins);
          ok = got->hist2d.counts == h.counts &&
               got->hist2d.xbins.edges() == h.xbins.edges() &&
               got->hist2d.ybins.edges() == h.ybins.edges();
        }
        v.expect(ok, "view " + std::to_string(k) + " t=" + std::to_string(t) +
                         " of " + e.composed);
      }
      const svc::Request r = overview(t, i);
      const svc::ResultPtr got = service_->execute(s, r);
      const Histogram2D exact =
          scan.all()
              .zoom_histogram2d(t, r.var_x, r.var_y, r.view_lo_x, r.view_hi_x,
                                r.view_lo_y, r.view_hi_y, r.nxbins, r.nybins,
                                core::ZoomMode::kExact)
              .hist;
      v.expect(got->status == svc::Status::kOk && got->hist2d.counts == exact.counts &&
                   got->hist2d.xbins.edges() == exact.xbins.edges() &&
                   got->hist2d.ybins.edges() == exact.ybins.edges(),
               "overview zoom t=" + std::to_string(t));
    }
    service_->close_session(s);
    v.expect(service_->stats().brush_stale_hits == 0, "brush_stale_hits == 0");
    return v;
  }

  Replay replay(Tracer* tracer) override {
    const core::EngineStats e0 = engine_->stats();
    const svc::ServiceStats s0 = service_->stats();
    exec_us_.clear();
    queue_us_.clear();
    const auto step = [&](std::size_t c, std::size_t i) {
      const Script& script = scripts_[c];
      std::uint64_t epoch = 0;
      {
        const Tracer::Scope span(tracer, "core.brush_edit");
        epoch = apply(sessions_[c], script.edits[i]);
      }
      if (epoch == 0) return false;
      std::vector<svc::ResultPtr> results(kNumViews + 1);  // + the overview
      {
        const Tracer::Scope span(tracer, "svc.views");
        std::vector<svc::ResultFuture> futures;
        const Clock::time_point submitted = Clock::now();
        for (int v = 0; v < kNumViews; ++v)
          futures.push_back(service_->submit(
              sessions_[c], view_request(static_cast<View>(v), script.timestep)));
        futures.push_back(service_->submit(sessions_[c], overview(script.timestep, i)));
        for (std::size_t v = 0; v < futures.size(); ++v) {
          results[v] = futures[v].get();
          if (tracer != nullptr && results[v]->served == svc::Served::kExecuted) {
            // Resolve is observed when this get() returns, so the queue
            // share of later views is an upper bound.
            const double wall_us = seconds_between(submitted, Clock::now()) * 1e6;
            exec_us_.push_back(results[v]->exec_seconds * 1e6);
            queue_us_.push_back(std::max(0.0, wall_us - results[v]->exec_seconds * 1e6));
          }
        }
      }
      for (int v = 0; v < kNumViews; ++v)
        if (results[v]->status != svc::Status::kOk || results[v]->brush_epoch != epoch)
          return false;
      if (results[kNumViews]->status != svc::Status::kOk) return false;
      render::ParallelCoordinatesPlot plot(
          {{"x", domains_["x"].first, domains_["x"].second},
           {"px", domains_["px"].first, domains_["px"].second},
           {"y", domains_["y"].first, domains_["y"].second}},
          render::PcLayout{320, 180, 16});
      plot.draw_frame();
      const Tracer::Scope span(tracer, "render.draw");
      plot.draw_histogram_layer({results[kXPxView]->hist2d, results[kPxYView]->hist2d},
                                render::PcStyle{});
      return true;
    };
    Replay out = run_closed_loop(1, kSessions * steps_, tracer,
                                 [&](std::size_t, std::size_t k) {
                                   return step(k % kSessions, k / kSessions);
                                 });
    const svc::ServiceStats s1 = service_->stats();
    if (s1.brush_stale_hits != s0.brush_stale_hits) out.failed += 1;
    engine_counter_metrics(e0, engine_->stats(), out.attempted, counters_);
    service_counter_metrics(s0, s1, counters_);
    return out;
  }

  void decompose(Tracer& tracer) override {
    // Each sampled step's composed predicate on a fresh engine: plan it,
    // evaluate it cold, then gather one of its 2D views from cached bits.
    const core::Engine probe = core::Engine::open(dir_);
    run_closed_loop(1, kSessions * steps_, nullptr, [&](std::size_t, std::size_t k) {
      const std::size_t c = k % kSessions, i = k / kSessions;
      if (i % kDecomposeEvery != 0) return true;
      const Script& script = scripts_[c];
      const Tracer::Scope root(&tracer, "decompose", static_cast<long>(k));
      std::shared_ptr<const core::Selection> sel;
      {
        const Tracer::Scope span(&tracer, "core.plan");
        sel = probe.select_shared(script.edits[i].composed);
      }
      {
        const Tracer::Scope span(&tracer, "core.evaluate");
        sel->bits(script.timestep);
      }
      {
        const Tracer::Scope span(&tracer, "bitmap.gather");
        sel->histogram2d(script.timestep, "x", "px", 32, 32);
      }
      const svc::Request r = overview(script.timestep, i);
      const Tracer::Scope span(&tracer, "agg.zoom");
      probe.all().zoom_histogram2d(r.timestep, r.var_x, r.var_y, r.view_lo_x,
                                   r.view_hi_x, r.view_lo_y, r.view_hi_y, r.nxbins,
                                   r.nybins);
      return true;
    });
  }

  void layer_metrics(const Tracer& tracer, LayerMetrics& out) override {
    for (const auto& [k, v] : counters_) out[k] = v;
    out["core.brush_edit_us"] = median(tracer.durations_us("core.brush_edit"));
    out["core.plan_us"] = median(tracer.durations_us("core.plan"));
    out["core.evaluate_us"] = median(tracer.durations_us("core.evaluate"));
    out["bitmap.gather_us"] = median(tracer.durations_us("bitmap.gather"));
    out["agg.zoom_us"] = median(tracer.durations_us("agg.zoom"));
    out["render.draw_us"] = median(tracer.durations_us("render.draw"));
    out["svc.exec_us"] = median(exec_us_);
    out["svc.queue_us"] = median(queue_us_);
  }

  void close() override {
    service_.reset();
    engine_.reset();
  }

  const core::Engine& engine() const override { return *engine_; }

  std::size_t pool_threads() const override { return kPoolThreads; }

  std::vector<std::string> stamp() const override {
    return {"\"sessions\": " + std::to_string(kSessions),
            "\"views_per_step\": " + std::to_string(int{kNumViews} + 1),
            "\"reset_every\": " + std::to_string(kCycle)};
  }

  std::uint64_t input_digest() const override {
    std::uint64_t h = kFnvBasis;
    for (const Script& s : scripts_)
      for (const Edit& e : s.edits) h = fnv1a(h, e.composed);
    return h;
  }

 private:
  std::string at(const char* v, double f) const {
    const auto [lo, hi] = domains_.at(v);
    return format_double(lo + f * (hi - lo));
  }

  // Predicate shapes cycle in a fixed order and the seed only jitters their
  // thresholds, so every seed replays steps of the same selectivity mix.

  /// The @p k-th fresh predicate: keeps a large share of the rows.
  std::string base_predicate(std::size_t k, Rng& rng) const {
    switch (k % 3) {
      case 0:
        return "x > " + at("x", 0.1 + 0.1 * rng.uniform()) + " && x < " +
               at("x", 0.7 + 0.1 * rng.uniform());
      case 1:
        return "y > " + at("y", 0.15 + 0.1 * rng.uniform());
      default:
        return "px > " + at("px", 0.01 * rng.uniform());
    }
  }

  /// The @p k-th refinement: removes a minority of the rows.
  std::string refinement(std::size_t k, Rng& rng) const {
    switch (k % 3) {
      case 0:
        return "y < " + at("y", 0.8 + 0.1 * rng.uniform());
      case 1:
        return "py > " + at("py", 0.1 + 0.1 * rng.uniform());
      default:
        return "x > " + at("x", 0.1 + 0.1 * rng.uniform());
    }
  }

  Script make_script(std::uint64_t seed, std::size_t session, std::size_t steps) const {
    static const Edit::Kind cycle[] = {
        Edit::Kind::kRefine, Edit::Kind::kInvert, Edit::Kind::kCombine,
        Edit::Kind::kRefine, Edit::Kind::kCombine, Edit::Kind::kInvert};
    static const core::Brush::CombineOp ops[] = {core::Brush::CombineOp::kOr,
                                                 core::Brush::CombineOp::kAnd,
                                                 core::Brush::CombineOp::kAndNot};
    Rng rng(seed);
    Script script;
    script.timestep = session % engine_->num_timesteps();
    script.aux = "x < " + at("x", 0.45 + 0.1 * rng.uniform());
    std::string composed;
    std::size_t resets = 0, refines = 0, combines = 0;
    for (std::size_t i = 0; i < steps; ++i) {
      Edit e;
      const std::size_t pos = i % kCycle;
      e.kind = pos == 0 ? Edit::Kind::kReset : cycle[(pos - 1) % std::size(cycle)];
      switch (e.kind) {
        case Edit::Kind::kReset:
          e.text = base_predicate(resets++, rng);
          composed = e.text;
          break;
        case Edit::Kind::kRefine:
          e.text = refinement(refines++, rng);
          composed = "(" + composed + ") && (" + e.text + ")";
          break;
        case Edit::Kind::kInvert:
          composed = "!(" + composed + ")";
          break;
        case Edit::Kind::kCombine:
          e.op = ops[combines++ % std::size(ops)];
          composed = e.op == core::Brush::CombineOp::kOr
                         ? "(" + composed + ") || (" + script.aux + ")"
                     : e.op == core::Brush::CombineOp::kAnd
                         ? "(" + composed + ") && (" + script.aux + ")"
                         : "(" + composed + ") && !(" + script.aux + ")";
          break;
      }
      e.composed = composed;
      script.edits.push_back(std::move(e));
    }
    return script;
  }

  /// Apply one scripted edit to brush "b" of @p session; the new epoch, or
  /// 0 when the service refused it.
  std::uint64_t apply(svc::QueryService::SessionId session, const Edit& e) {
    svc::BrushOutcome o;
    switch (e.kind) {
      case Edit::Kind::kReset:
        service_->brush_drop(session, "b");  // absent before the first reset
        o = service_->brush_create(session, "b", e.text);
        break;
      case Edit::Kind::kRefine:
        o = service_->brush_refine(session, "b", e.text);
        break;
      case Edit::Kind::kInvert:
        o = service_->brush_invert(session, "b");
        break;
      case Edit::Kind::kCombine:
        o = service_->brush_combine(session, "b", "aux", e.op);
        break;
    }
    return o.status == svc::Status::kOk ? o.epoch : 0;
  }

  Options options_;
  std::size_t steps_;
  std::filesystem::path dir_;
  std::unique_ptr<core::Engine> engine_;
  std::unique_ptr<svc::QueryService> service_;
  std::map<std::string, std::pair<double, double>> domains_;
  std::vector<Script> scripts_;
  std::vector<svc::QueryService::SessionId> sessions_;
  std::vector<double> exec_us_, queue_us_;
  LayerMetrics counters_;
};

}  // namespace

std::unique_ptr<Workload> make_linked_views(const Options& options) {
  return std::make_unique<LinkedViews>(options);
}

}  // namespace perfbench
