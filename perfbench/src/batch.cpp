// batch: the paper's out-of-core analysis path (Figs. 14-17). One caller
// repeats a beam study: plan and evaluate a seeded beam condition, take the
// beam's ids at the last timestep, run the conditional histograms of
// several variable pairs over every timestep (par::parallel_histograms on
// the engine), and track the beam's ids through every timestep
// (par::parallel_track on the engine). The engine's memory budget is below
// the working set and there are more timesteps than pool threads, so
// columns are evicted and reloaded inside every step.
#include <algorithm>
#include <memory>

#include "common.hpp"
#include "core/selection.hpp"
#include "parallel/par_ops.hpp"

namespace perfbench {
namespace {

using namespace qdv;

constexpr std::size_t kThreads = 3;     // pool threads of one batch (< nproc)
constexpr std::size_t kTimesteps = 8;   // more timesteps than threads
constexpr std::size_t kParticles = 200000;
constexpr double kBudgetShare = 0.4;    // budget / touched column bytes
constexpr std::size_t kVerifySteps = 4;
constexpr double kNominalStepsPerS = 45.0;

const std::vector<std::pair<std::string, std::string>> kPairs = {
    {"x", "px"}, {"y", "py"}, {"x", "y"}};

class Batch final : public Workload {
 public:
  explicit Batch(const Options& o)
      : options_(o), steps_(steps_for(o, kNominalStepsPerS, 12)), cluster_(kThreads) {}

  Shape shape() const override {
    return options_.smoke ? Shape{5000, kTimesteps} : Shape{kParticles, kTimesteps};
  }

  double open(const std::filesystem::path& dir) override {
    dir_ = dir;
    const Clock::time_point t0 = Clock::now();
    engine_ = std::make_unique<core::Engine>(core::Engine::open(dir));
    const double open_s = seconds_between(t0, Clock::now());
    // Columns one step touches: the pair variables plus id, per timestep.
    std::uint64_t touched = 0;
    for (std::size_t t = 0; t < engine_->num_timesteps(); ++t)
      touched += engine_->dataset().table(t).num_rows() * sizeof(double) * 5;
    budget_ = static_cast<std::uint64_t>(static_cast<double>(touched) * kBudgetShare);
    engine_->set_memory_budget(budget_);
    conditions_ = make_conditions(mix_seed(options_.seed, 300), steps_);
    return open_s;
  }

  void warm() override {
    // Two steps of their own: plans cached, the budget filled to its cap.
    for (const std::string& c : make_conditions(mix_seed(options_.seed, 2), 2))
      step(c, nullptr);
  }

  Verification verify(bool corrupt_expected) override {
    Verification v;
    const core::Engine scan(io::Dataset::open(dir_), EvalMode::kScan);
    const std::uint64_t seed = mix_seed(options_.seed, 3);
    for (const std::string& c : make_conditions(seed, kVerifySteps)) {
      const Totals got = step(c, nullptr);
      const core::Selection want_sel = scan.select(c);
      const std::vector<std::uint64_t> ids = want_sel.ids(last());
      par::HistogramWorkload w = workload(c);
      const std::uint64_t want_records =
          par::parallel_histograms(scan, w, cluster_).total_records +
          (corrupt_expected ? 1 : 0);
      corrupt_expected = false;
      const std::uint64_t want_hits = par::parallel_track(scan, ids, cluster_).total_hits;
      v.expect(got.ids == ids.size(), "ids of " + c);
      v.expect(got.records == want_records, "histogram totals of " + c);
      v.expect(got.hits == want_hits, "track hits of " + c);
    }
    return v;
  }

  Replay replay(Tracer* tracer) override {
    const core::EngineStats e0 = engine_->stats();
    task_us_.clear();
    task_max_us_.clear();
    busy_s_ = capacity_s_ = 0.0;
    Replay out = run_closed_loop(1, steps_, tracer, [&](std::size_t, std::size_t i) {
      step(conditions_[i], tracer);
      return true;
    });
    engine_counter_metrics(e0, engine_->stats(), out.attempted, counters_);
    return out;
  }

  void decompose(Tracer& tracer) override {
    // The gather alone: a 2D histogram of each condition with its bits
    // already evaluated.
    for (std::size_t i = 0; i < steps_; ++i) {
      const auto sel = engine_->select_shared(conditions_[i]);
      sel->bits(last());
      const Tracer::Scope root(&tracer, "decompose", static_cast<long>(i));
      const Tracer::Scope span(&tracer, "bitmap.gather");
      sel->histogram2d(last(), "x", "px", 64, 64);
    }
  }

  void layer_metrics(const Tracer& tracer, LayerMetrics& out) override {
    for (const auto& [k, v] : counters_) out[k] = v;
    out["core.plan_us"] = median(tracer.durations_us("core.plan"));
    out["core.evaluate_us"] = median(tracer.durations_us("core.evaluate"));
    out["bitmap.ids_us"] = median(tracer.durations_us("bitmap.ids"));
    out["bitmap.gather_us"] = median(tracer.durations_us("bitmap.gather"));
    out["core.track_us"] = median(tracer.durations_us("core.track"));
    out["parallel.task_p50_us"] = median(task_us_);
    out["parallel.task_max_us"] = median(task_max_us_);
    out["parallel.busy_frac"] = capacity_s_ > 0.0 ? busy_s_ / capacity_s_ : 0.0;
  }

  void close() override { engine_.reset(); }

  const core::Engine& engine() const override { return *engine_; }

  std::vector<std::string> stamp() const override {
    return {"\"threads\": " + std::to_string(kThreads),
            "\"pairs\": " + std::to_string(kPairs.size()),
            "\"budget_bytes\": " + std::to_string(budget_)};
  }

  std::uint64_t input_digest() const override {
    std::uint64_t h = kFnvBasis;
    for (const std::string& c : conditions_) h = fnv1a(h, c);
    return h;
  }

 private:
  struct Totals {
    std::uint64_t ids = 0, records = 0, hits = 0;
  };

  std::size_t last() const { return engine_->num_timesteps() - 1; }

  static par::HistogramWorkload workload(const std::string& condition) {
    par::HistogramWorkload w;
    w.pairs = kPairs;
    w.nbins = 64;
    w.condition = parse_query(condition);
    return w;
  }

  /// Beam conditions: a momentum cut in the upper part of the last
  /// timestep's range, where the accelerated beams sit, sometimes narrowed
  /// to one transverse half.
  std::vector<std::string> make_conditions(std::uint64_t seed, std::size_t n) const {
    const auto [lo, hi] = engine_->dataset().table(last()).domain("px");
    const auto [ylo, yhi] = engine_->dataset().table(last()).domain("y");
    Rng rng(seed);
    std::vector<std::string> out;
    for (std::size_t i = 0; i < n; ++i) {
      const double cut = lo + (0.3 + 0.5 * rng.uniform()) * (hi - lo);
      std::string c = "px > " + format_double(cut);
      if (rng.below(2) == 0)
        c += " && y " + std::string(rng.below(2) == 0 ? "<" : ">") + " " +
             format_double(ylo + (0.4 + 0.2 * rng.uniform()) * (yhi - ylo));
      out.push_back(std::move(c));
    }
    return out;
  }

  void record(const par::ClusterRun& run) {
    double sum = 0.0, max = 0.0;
    for (const double s : run.task_seconds) {
      task_us_.push_back(s * 1e6);
      sum += s;
      max = std::max(max, s);
    }
    task_max_us_.push_back(max * 1e6);
    busy_s_ += sum;
    capacity_s_ += run.wall_seconds * static_cast<double>(cluster_.host_threads());
  }

  Totals step(const std::string& condition, Tracer* tracer) {
    Totals out;
    std::shared_ptr<const core::Selection> sel;
    {
      const Tracer::Scope span(tracer, "core.plan");
      sel = engine_->select_shared(condition);
    }
    {
      const Tracer::Scope span(tracer, "core.evaluate");
      sel->bits(last());
    }
    std::vector<std::uint64_t> ids;
    {
      const Tracer::Scope span(tracer, "bitmap.ids");
      ids = sel->ids(last());
    }
    out.ids = ids.size();
    par::HistogramBatch hist;
    {
      const Tracer::Scope span(tracer, "parallel.histograms");
      hist = par::parallel_histograms(*engine_, workload(condition), cluster_);
    }
    par::TrackBatch track;
    {
      const Tracer::Scope span(tracer, "core.track");
      track = par::parallel_track(*engine_, ids, cluster_);
    }
    if (tracer != nullptr) {
      record(hist.run);
      record(track.run);
    }
    out.records = hist.total_records;
    out.hits = track.total_hits;
    return out;
  }

  Options options_;
  std::size_t steps_;
  par::VirtualCluster cluster_;
  std::filesystem::path dir_;
  std::unique_ptr<core::Engine> engine_;
  std::uint64_t budget_ = 0;
  std::vector<std::string> conditions_;
  std::vector<double> task_us_, task_max_us_;
  double busy_s_ = 0.0, capacity_s_ = 0.0;
  LayerMetrics counters_;
};

}  // namespace

std::unique_ptr<Workload> make_batch(const Options& options) {
  return std::make_unique<Batch>(options);
}

}  // namespace perfbench
