// Shared pieces of the end-to-end benchmark: options, seeded input
// generation, closed-loop step replay, span tracing from outside the
// library, and the metric tables the benchmark prints.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "svc/query_service.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Command-line options of one qdv_perfbench invocation.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 8.0;
  bool trace = false;
  bool smoke = false;             // tiny inputs, for the self-tests
  bool corrupt_expected = false;  // self-test: perturb one expected answer
  std::filesystem::path data_dir;
  std::filesystem::path trace_out;  // span dump of a traced run
  std::string git_sha = "unknown";
};

/// splitmix64: the one generator behind every seeded input.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  double uniform();  // [0, 1)
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }

 private:
  std::uint64_t state_;
};

/// Stable mix of a seed with a stream label, so sub-streams never overlap.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

/// The timed steps of one replay.
struct Replay {
  std::vector<double> latency_s;  // one entry per attempted step
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> round_steps_per_s;  // throughput of each round

  /// Median round throughput: a burst of host noise moves one round, not
  /// the result.
  double steps_per_s() const;
};

/// Outcome of the pre-timing verification pass.
struct Verification {
  std::uint64_t checks = 0;
  std::uint64_t mismatches = 0;
  std::vector<std::string> first_mismatches;  // a few, for the log

  void expect(bool ok, const std::string& what);
};

/// One recorded span: a public call timed from the benchmark's side.
struct Span {
  const char* name = "";
  double start_s = 0.0;  // since the tracer's epoch
  double end_s = 0.0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t step = 0;
};

/// In-memory span recorder. Spans nest per thread: a Scope opened while
/// another is live on the same thread becomes its child. A Scope on a null
/// tracer records nothing and costs one branch.
class Tracer {
 public:
  Tracer() : epoch_(Clock::now()) {}

  class Scope {
   public:
    /// @p step >= 0 opens a step's root span and tags every span the
    /// thread opens until it closes with that step id.
    Scope(Tracer* tracer, const char* name, long step = -1);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Seconds since the scope opened (valid without a tracer too).
    double elapsed() const { return seconds_between(start_, Clock::now()); }

   private:
    Tracer* tracer_;
    Span span_;
    Clock::time_point start_;
    std::uint64_t saved_step_ = 0;
    bool step_root_ = false;
  };

  std::vector<Span> spans() const;
  /// Durations in microseconds of every span called @p name.
  std::vector<double> durations_us(const std::string& name) const;
  /// Per span name: count, median duration and median self time (span
  /// minus the time its child spans cover), microseconds.
  std::string self_time_report() const;
  /// Write every span as one JSON object per line.
  void write(const std::filesystem::path& path) const;

 private:
  Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Rounds a replay is split into (see Replay::steps_per_s).
inline constexpr std::size_t kRounds = 15;

/// Run @p clients closed-loop threads of @p steps_per_client steps each, in
/// kRounds rounds that every client finishes before the next one starts.
/// @p step returns false when the step failed. Every step is timed from
/// sending to its last answer; under tracing each step is a root span.
Replay run_closed_loop(std::size_t clients, std::size_t steps_per_client,
                       Tracer* tracer,
                       const std::function<bool(std::size_t client,
                                                std::size_t index)>& step);

/// Median of @p values (0 when empty).
double median(std::vector<double> values);
/// Nearest-rank percentile shared with the service (svc::sorted_percentile).
double percentile(std::vector<double> values, double q);

/// Per-layer metric values of a traced run, keyed by the names of
/// layer_metric_units(); unmeasured names print as 0.
using LayerMetrics = std::map<std::string, double>;

/// Every per-layer metric name with its unit, in report order.
const std::vector<std::pair<std::string, std::string>>& layer_metric_units();

/// Ratios and per-step rates from two engine-counter snapshots.
void engine_counter_metrics(const qdv::core::EngineStats& before,
                            const qdv::core::EngineStats& after,
                            std::size_t steps, LayerMetrics& out);
/// Load every column the workloads gather from (x, y, px, py) at every
/// timestep, through @p service.
void load_columns(qdv::svc::QueryService& service, std::size_t timesteps);

/// Coalescing, result-cache and brush ratios from two service snapshots.
void service_counter_metrics(const qdv::svc::ServiceStats& before,
                             const qdv::svc::ServiceStats& after,
                             LayerMetrics& out);

/// Dataset shape of one workload.
struct Shape {
  std::size_t particles = 0;
  std::size_t timesteps = 0;
};

/// One workload: its own dataset shape, set-up, verification and replay.
/// main() calls open() and warm() once per set-up on a freshly
/// generated dataset, then verify() and replay() on the last one.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual Shape shape() const = 0;
  /// Engine::open and whatever the workload builds on it; returns the
  /// Engine::open wall seconds.
  virtual double open(const std::filesystem::path& dir) = 0;
  /// Warm-up until the caches the timed steps rely on are filled.
  virtual void warm() = 0;
  virtual Verification verify(bool corrupt_expected) = 0;
  /// The fixed, seed-determined step sequence, timed.
  virtual Replay replay(Tracer* tracer) = 0;
  /// Traced pass after the traced replay: the replay's calls again on
  /// fresh in-process twins, with the layers inside one step timed apart.
  virtual void decompose(Tracer& tracer) = 0;
  /// Per-layer metrics of the traced replay and decomposition just run.
  virtual void layer_metrics(const Tracer& tracer, LayerMetrics& out) = 0;
  /// Drop every handle on the dataset.
  virtual void close() = 0;
  /// The engine the timed steps run on (valid between open and close).
  virtual const qdv::core::Engine& engine() const = 0;
  /// Workers of the library's shared pool (par::ThreadPool::global()),
  /// or 0 for the library's default of one per hardware thread.
  virtual std::size_t pool_threads() const { return 0; }
  /// Extra stamp fields, as `"key": value` JSON fragments.
  virtual std::vector<std::string> stamp() const { return {}; }
  /// Digest of the generated step sequence (differs between seeds).
  virtual std::uint64_t input_digest() const = 0;
};

/// FNV-1a, for input digests.
std::uint64_t fnv1a(std::uint64_t hash, const std::string& text);
inline constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;

std::unique_ptr<Workload> make_explore(const Options& options);
std::unique_ptr<Workload> make_linked_views(const Options& options);
std::unique_ptr<Workload> make_batch(const Options& options);

/// Scales a workload's step count to the requested run length: the steps
/// are fixed for a given --seconds, so every run replays the same work.
std::size_t steps_for(const Options& options, double nominal_steps_per_s,
                      std::size_t smoke_steps);

}  // namespace perfbench
