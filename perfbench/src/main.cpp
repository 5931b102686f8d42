// qdv_perfbench: end-to-end benchmark program.
//
//   qdv_perfbench --workload explore|linked-views|batch --seed N
//                 --seconds S --trace 0|1 --data-dir DIR
//                 [--git-sha SHA] [--trace-out FILE]
//                 [--smoke] [--corrupt-expected]
//
// One run: kSetups set-ups (generate the seeded dataset, Engine::open, warm-up),
// each timed, the last one kept; a verification pass against a scan
// engine; then the workload's fixed step sequence, timed. --trace 1 also
// reopens the dataset, replays the same steps with spans recorded around
// every public call, and runs the decomposition pass. The last stdout line
// is the result object: end-to-end metrics untraced, per-layer metrics
// traced. Exits 1 when any answer was wrong or any step failed.
#include <fcntl.h>
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/wakefield.hpp"

namespace {

using namespace perfbench;

/// Set-ups per run; setup_s is their median.
constexpr std::size_t kSetups = 3;
constexpr std::uint64_t kDataSeed = 42;

/// Removes the run's data directory on every exit path.
struct DirGuard {
  std::filesystem::path dir;
  ~DirGuard() {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
};

bool parse_args(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") o.workload = value();
    else if (a == "--seed") o.seed = std::stoull(value());
    else if (a == "--seconds") o.seconds = std::stod(value());
    else if (a == "--trace") o.trace = value() == "1";
    else if (a == "--data-dir") o.data_dir = value();
    else if (a == "--git-sha") o.git_sha = value();
    else if (a == "--trace-out") o.trace_out = value();
    else if (a == "--smoke") o.smoke = true;
    else if (a == "--corrupt-expected") o.corrupt_expected = true;
    else throw std::invalid_argument("unknown argument " + a);
  }
  return !o.workload.empty() && !o.data_dir.empty() && o.seconds > 0;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char ch : text) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) < 0x20) continue;
    out += ch;
  }
  return out + "\"";
}

std::string number(double v) {
  std::ostringstream out;
  out.precision(10);
  out << v;
  return out.str();
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// Write the generated dataset through to disk, so its writeback runs
/// inside set-up and not under the timed steps.
void flush_dataset(const std::filesystem::path& dir) {
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const int fd = ::open(entry.path().c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) continue;
    ::fsync(fd);
    ::close(fd);
  }
}

/// Open a fresh peak-RSS window for the timed steps: hand the heap that
/// set-up and verification freed back to the OS, then reset the kernel's
/// high-water mark (VmHWM). False when the reset is unavailable.
bool reset_peak_rss() {
  ::malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

/// Peak RSS in MiB: VmHWM since reset_peak_rss() when @p windowed, else the
/// whole process's getrusage peak.
double peak_rss_mb(bool windowed) {
  if (windowed) {
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);)
      if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/// Samples strictly above the nearest-rank p95 of @p n samples.
std::size_t beyond_p95(std::size_t n) {
  if (n == 0) return 0;
  const auto idx = static_cast<std::size_t>(0.95 * static_cast<double>(n - 1) + 0.5);
  return n - 1 - idx;
}

int run(const Options& o) {
  std::unique_ptr<Workload> w;
  if (o.workload == "explore") w = make_explore(o);
  else if (o.workload == "linked-views") w = make_linked_views(o);
  else if (o.workload == "batch") w = make_batch(o);
  else {
    std::cerr << "unknown workload '" << o.workload << "'\n";
    return 2;
  }
  // The shared pool reads QDV_THREADS once, when the first library call
  // creates it, so this precedes every library call.
  if (w->pool_threads() > 0)
    ::setenv("QDV_THREADS", std::to_string(w->pool_threads()).c_str(), 1);
  const DirGuard guard{o.data_dir / (o.workload + "-" + std::to_string(::getpid()))};
  std::filesystem::create_directories(guard.dir);

  // The dataset is the same for every seed (the bench preset's seed 42);
  // --seed draws the steps replayed over it. Regenerated data would move
  // the cost of a request by seed, not by the change under test.
  const Shape shape = w->shape();
  const qdv::sim::WakefieldConfig config =
      qdv::sim::WakefieldConfig::preset_bench(shape.particles, shape.timesteps,
                                              kDataSeed);
  std::vector<double> setup_s, generate_s, open_s;
  std::filesystem::path dir;
  for (std::size_t k = 0; k < kSetups; ++k) {
    w->close();
    if (!dir.empty()) std::filesystem::remove_all(dir);
    dir = guard.dir / ("s" + std::to_string(k));
    const Clock::time_point t0 = Clock::now();
    qdv::sim::generate_dataset(config, dir, qdv::io::IndexConfig{});
    flush_dataset(dir);
    const Clock::time_point t1 = Clock::now();
    open_s.push_back(w->open(dir));
    w->warm();
    const Clock::time_point t2 = Clock::now();
    generate_s.push_back(seconds_between(t0, t1));
    setup_s.push_back(seconds_between(t0, t2));
  }

  const Verification v = w->verify(o.corrupt_expected);
  for (const std::string& m : v.first_mismatches)
    std::cout << "# verify mismatch: " << m << "\n";
  const bool windowed = reset_peak_rss();
  const Replay base = w->replay(nullptr);
  const double peak_mb = peak_rss_mb(windowed);
  const std::size_t rows = w->engine().dataset().table(0).num_rows();
  const std::string isa = w->engine().stats().simd_isa;
  const std::uint64_t digest = w->input_digest();
  std::uint64_t attempted = v.checks + base.attempted;
  std::uint64_t failed = v.mismatches + base.failed;

  std::ostringstream stamp;
  stamp << "{\"workload\": " << json_string(o.workload) << ", \"seed\": " << o.seed
        << ", \"seconds\": " << number(o.seconds)
        << ", \"nproc\": " << std::thread::hardware_concurrency()
        << ", \"pool_threads\": " << qdv::par::ThreadPool::global().size()
        << ", \"simd_isa\": " << json_string(isa)
        << ", \"compiler\": " << json_string(compiler())
        << ", \"git_sha\": " << json_string(o.git_sha)
        << ", \"data_seed\": " << kDataSeed << ", \"particles\": " << config.num_particles
        << ", \"timesteps\": " << config.num_timesteps << ", \"rows_per_step\": " << rows
        << ", \"setups\": " << kSetups << ", \"verify_checks\": " << v.checks
        << ", \"verify_mismatches\": " << v.mismatches
        << ", \"steps\": " << base.attempted
        << ", \"step_failures\": " << base.failed
        << ", \"p50_samples\": " << base.latency_s.size()
        << ", \"p95_tail_samples\": " << beyond_p95(base.latency_s.size())
        << ", \"peak_rss_window\": " << (windowed ? "\"timed steps\"" : "\"process\"")
        << ", \"input_digest\": \"" << std::hex << digest << std::dec << "\"";
  stamp << ", \"round_steps_per_s\": [";
  for (std::size_t r = 0; r < base.round_steps_per_s.size(); ++r)
    stamp << (r ? ", " : "") << number(base.round_steps_per_s[r]);
  stamp << "]";
  for (const std::string& f : w->stamp()) stamp << ", " << f;
  stamp << "}";
  std::cout << "# stamp " << stamp.str() << "\n";

  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  if (!o.trace) {
    metrics = {
        {"steps_per_s", {base.steps_per_s(), "1/s"}},
        {"step_p50_ms", {percentile(base.latency_s, 0.5) * 1e3, "ms"}},
        {"step_p95_ms", {percentile(base.latency_s, 0.95) * 1e3, "ms"}},
        {"setup_s", {median(setup_s), "s"}},
        {"peak_rss_mb", {peak_mb, "MB"}},
    };
  } else {
    // Traced replay on a reopened dataset, so caches start where the
    // untraced replay's did.
    w->close();
    open_s.push_back(w->open(dir));
    w->warm();
    Tracer tracer;
    const Replay traced = w->replay(&tracer);
    w->decompose(tracer);
    attempted += traced.attempted;
    failed += traced.failed;
    LayerMetrics layers;
    for (const auto& [name, unit] : layer_metric_units()) layers[name] = 0.0;
    layers["sim.generate_s"] = median(generate_s);
    layers["io.open_s"] = median(open_s);
    w->layer_metrics(tracer, layers);
    layers["trace.overhead_ratio"] =
        base.steps_per_s() > 0.0 ? traced.steps_per_s() / base.steps_per_s() : 0.0;
    std::cout << "# tracing overhead: traced/untraced steps_per_s = "
              << number(layers["trace.overhead_ratio"]) << " (traced "
              << number(traced.steps_per_s()) << "/s over " << traced.attempted
              << " steps; base untraced " << number(base.steps_per_s()) << "/s over "
              << base.attempted << " steps)\n";
    for (const auto& [name, unit] : layer_metric_units()) {
      std::cout << "# layer " << name << " = " << number(layers[name]) << " " << unit
                << "\n";
      metrics.push_back({name, {layers[name], unit}});
    }
    std::istringstream spans(tracer.self_time_report());
    for (std::string line; std::getline(spans, line);) std::cout << "# " << line << "\n";
    if (!o.trace_out.empty()) {
      tracer.write(o.trace_out);
      std::cout << "# spans written to " << o.trace_out.string() << "\n";
    }
  }
  w->close();

  const bool correct = failed == 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::cout << (i ? ", " : "") << json_string(metrics[i].first)
              << ": {\"value\": " << number(metrics[i].second.first)
              << ", \"unit\": " << json_string(metrics[i].second.second) << "}";
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  try {
    if (!parse_args(argc, argv, o)) {
      std::cerr << "usage: qdv_perfbench --workload explore|linked-views|batch "
                   "--seed N --seconds S --trace 0|1 --data-dir DIR\n";
      return 2;
    }
    return run(o);
  } catch (const std::exception& e) {
    std::cerr << "qdv_perfbench: " << e.what() << "\n";
    return 1;
  }
}
