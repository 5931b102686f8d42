// qdv_tool — command-line front end to the library.
//
// Subcommands:
//   generate <dir> [--preset 2d|3d|bench] [--particles N] [--timesteps N]
//            [--seed S] [--index-bins N] [--no-pyramids] [--pair-bins N]
//   info     <dir>
//   query    <dir> -t <timestep> -q "<query>" [--scan] [--eager]
//            [--budget <MiB>] [--count-only] [--stats]
//   explain  <dir> -q "<query>"
//   histogram <dir> -t <timestep> -x <var> -y <var> [--bins N] [--adaptive]
//            [-q "<query>"] [--csv <file>]
//   stats    <dir> -t <timestep> -v <var> [-q "<query>"]
//   track    <dir> -q "<query>" --select-at <t> [--from <t>] [--to <t>]
//            [--vars a,b,c] [--limit N]
//   render   <dir> -t <timestep> --axes a,b,c [-q "<query>"] [--bins N]
//            [--gamma G] -o <out.ppm>
//   serve    <dir> --socket <path> [--concurrency N]
//            [--no-cache] [--budget <MiB>]
//   bombard  <dir> [--socket <path>] [--clients N]
//            [--requests M] [--seed S] [--dup F] [--json <file>]
//            [--scenario mixed|zoom|brush] [--bins N] [--chaos]
//            [--chaos-spec <fault-spec>]
//   fsck     <dir> [--verbose]
//   corrupt  <dir> --file <rel-path> [--offset N | --tail N] [--xor B]
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "agg/pyramid.hpp"
#include "core/session.hpp"
#include "core/statistics.hpp"
#include "fault/fault.hpp"
#include "io/checksum.hpp"
#include "io/export.hpp"
#include "parallel/prefetch.hpp"
#include "sim/wakefield.hpp"
#include "svc/protocol.hpp"
#include "svc/server.hpp"

namespace {

using namespace qdv;

/// Tiny argument cursor: positional + --flag [value] parsing.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 0; i < argc; ++i) args_.emplace_back(argv[i]);
  }

  std::optional<std::string> option(const std::string& name) const {
    for (std::size_t i = 0; i + 1 < args_.size(); ++i)
      if (args_[i] == name) return args_[i + 1];
    return std::nullopt;
  }

  bool flag(const std::string& name) const {
    for (const std::string& a : args_)
      if (a == name) return true;
    return false;
  }

  std::string option_or(const std::string& name, const std::string& fallback) const {
    return option(name).value_or(fallback);
  }

  // Strict numeric options via the wire parsers: std::stoull/std::stod
  // accept prefixes ("8x" parses as 8) and throw bare std::invalid_argument
  // on garbage; these reject the whole token with a message naming the
  // flag.
  std::size_t size_option(const std::string& name, std::size_t fallback) const {
    const auto v = option(name);
    if (!v) return fallback;
    std::size_t n = 0;
    if (!svc::parse_size(*v, n))
      throw std::runtime_error("bad value for " + name + ": '" + *v +
                               "' (need a non-negative integer)");
    return n;
  }

  double double_option(const std::string& name, double fallback) const {
    const auto v = option(name);
    if (!v) return fallback;
    double f = 0.0;
    if (!svc::parse_double(*v, f))
      throw std::runtime_error("bad value for " + name + ": '" + *v +
                               "' (need a finite number)");
    return f;
  }

 private:
  std::vector<std::string> args_;
};

std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> out;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ','))
    if (!item.empty()) out.push_back(item);
  return out;
}

int cmd_generate(const std::string& dir, const Args& args) {
  const std::string preset = args.option_or("--preset", "2d");
  const std::size_t particles = args.size_option("--particles", 100000);
  const std::uint64_t seed = args.size_option("--seed", 42);
  sim::WakefieldConfig cfg;
  if (preset == "2d") {
    cfg = sim::WakefieldConfig::preset_2d(particles, seed);
  } else if (preset == "3d") {
    cfg = sim::WakefieldConfig::preset_3d(particles, seed);
  } else if (preset == "bench") {
    cfg = sim::WakefieldConfig::preset_bench(particles,
                                             args.size_option("--timesteps", 10), seed);
  } else {
    std::cerr << "unknown preset '" << preset << "' (use 2d | 3d | bench)\n";
    return 2;
  }
  if (args.option("--timesteps") && preset != "bench")
    cfg.num_timesteps = args.size_option("--timesteps", cfg.num_timesteps);
  io::IndexConfig index_config;
  index_config.nbins = args.size_option("--index-bins", 1024);
  if (args.flag("--no-pyramids")) index_config.build_pyramids = false;
  index_config.pyramid_pair_bins =
      args.size_option("--pair-bins", index_config.pyramid_pair_bins);
  const std::uint64_t bytes = sim::generate_dataset(cfg, dir, index_config);
  std::cout << "wrote " << cfg.num_timesteps << " timesteps, " << (bytes >> 20)
            << " MiB (data + indices) to " << dir << "\n";
  return 0;
}

int cmd_info(const std::string& dir) {
  const io::Dataset ds = io::Dataset::open(dir);
  std::cout << "dataset:    " << dir << "\n";
  std::cout << "timesteps:  " << ds.num_timesteps() << "\n";
  std::cout << "variables: ";
  for (const auto& v : ds.variables()) std::cout << ' ' << v;
  std::cout << "\n";
  std::uint64_t rows = 0;
  for (std::size_t t = 0; t < ds.num_timesteps(); ++t) rows += ds.table(t).num_rows();
  std::cout << "records:    " << rows << " total ("
            << rows / std::max<std::size_t>(1, ds.num_timesteps()) << " per step)\n";
  std::cout << "disk:       " << (ds.disk_bytes() >> 20) << " MiB\n";
  std::cout << "indices:    " << (ds.table(0).has_indices() ? "yes" : "no") << "\n";
  return 0;
}

int cmd_fsck(const std::string& dir, const Args& args) {
  const io::FsckReport report = io::fsck_dataset(dir);
  const bool verbose = args.flag("--verbose");
  for (const io::FsckEntry& e : report.entries) {
    const char* status = e.status == io::FsckEntry::Status::kOk ? "ok"
                         : e.status == io::FsckEntry::Status::kFailed
                             ? "FAILED"
                             : "unverified";
    if (!verbose && e.status == io::FsckEntry::Status::kOk) continue;
    std::cout << "  " << status << "  " << e.rel;
    if (!e.detail.empty()) std::cout << "  (" << e.detail << ")";
    std::cout << "\n";
  }
  std::cout << "fsck " << dir << ": " << report.ok << " ok, " << report.failed
            << " failed, " << report.unverified << " unverified ("
            << report.sections_checked << " sections checked)\n";
  return report.damaged() ? 1 : 0;
}

/// Deterministic single-byte damage for integrity drills: flip one byte of
/// one artifact, leaving the checksum sidecars untouched so fsck and the
/// degradation paths see a genuine mismatch. Exercised by the chaos-smoke
/// CI job; never useful in production.
int cmd_corrupt(const std::string& dir, const Args& args) {
  const auto rel = args.option("--file");
  if (!rel) {
    std::cerr << "corrupt: missing --file <path relative to dataset root>\n";
    return 2;
  }
  const std::filesystem::path path = std::filesystem::path(dir) / *rel;
  if (!std::filesystem::is_regular_file(path)) {
    std::cerr << "corrupt: no such file: " << path << "\n";
    return 2;
  }
  const std::uint64_t size = std::filesystem::file_size(path);
  std::uint64_t offset = args.size_option("--offset", 0);
  if (args.option("--tail"))
    offset = size - std::min<std::uint64_t>(size, args.size_option("--tail", 0));
  if (offset >= size) {
    std::cerr << "corrupt: offset " << offset << " out of range (file is "
              << size << " bytes)\n";
    return 2;
  }
  const unsigned mask =
      static_cast<unsigned>(args.size_option("--xor", 0x40)) & 0xff;
  if (mask == 0) {
    std::cerr << "corrupt: --xor 0 would be a no-op\n";
    return 2;
  }
  std::fstream file(path,
                    std::ios::in | std::ios::out | std::ios::binary);
  file.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  file.get(byte);
  file.seekp(static_cast<std::streamoff>(offset));
  file.put(static_cast<char>(static_cast<unsigned char>(byte) ^ mask));
  file.flush();
  if (!file) {
    std::cerr << "corrupt: write failed on " << path << "\n";
    return 1;
  }
  std::cout << "flipped byte " << offset << " of " << *rel << " (xor 0x"
            << std::hex << mask << std::dec << ")\n";
  return 0;
}

int cmd_query(const std::string& dir, const Args& args) {
  const auto text = args.option("-q");
  if (!text) {
    std::cerr << "query: missing -q \"<query>\"\n";
    return 2;
  }
  const std::size_t t = args.size_option("-t", 0);
  io::OpenOptions options = io::default_open_options();
  if (args.flag("--eager")) options.mode = io::LoadMode::kEager;
  if (args.option("--budget"))
    options.budget_bytes =
        static_cast<std::uint64_t>(args.size_option("--budget", 0)) << 20;
  const core::Engine engine(
      io::Dataset::open(dir, options),
      args.flag("--scan") ? EvalMode::kScan : EvalMode::kAuto);
  const core::Selection selection = engine.select(*text);
  const io::TimestepTable& table = engine.dataset().table(t);
  const auto hits = selection.bits(t);
  std::cout << hits->count() << " of " << table.num_rows() << " records match at t="
            << t << "\n";
  if (!args.flag("--count-only")) {
    std::size_t shown = 0;
    const auto ids = table.id_column("id");
    hits->for_each_set([&](std::uint64_t row) {
      if (shown < 10) std::cout << "  row " << row << "  id " << ids[row] << "\n";
      ++shown;
    });
    if (shown > 10) std::cout << "  ... " << (shown - 10) << " more\n";
  }
  if (args.flag("--stats")) {
    const core::EngineStats s = engine.stats();
    std::cout << "cache: " << s.hits << " hits, " << s.misses << " misses, "
              << s.entries << " entries, " << s.bytes << " bytes\n";
    std::cout << "memory: resident " << s.resident_bytes << " B";
    if (s.budget_bytes == io::MemoryBudget::kUnlimited)
      std::cout << " (no budget)";
    else
      std::cout << " / budget " << s.budget_bytes << " B";
    std::cout << ", columns " << s.column_bytes << " B, segments "
              << s.segment_bytes << " B\n";
    std::cout << "io: loaded " << s.loaded_bytes << " B total, "
              << s.io_evictions << " evictions\n";
    std::cout << "simd: " << s.simd_isa << " (positions "
              << s.positions_vector_calls << " vector / "
              << s.positions_scalar_calls << " scalar, hist1d "
              << s.hist1d_vector_calls << " vector / " << s.hist1d_scalar_calls
              << " scalar, hist2d " << s.hist2d_vector_calls << " vector / "
              << s.hist2d_scalar_calls << " scalar)\n";
  }
  return 0;
}

int cmd_explain(const std::string& dir, const Args& args) {
  const auto text = args.option("-q");
  if (!text) {
    std::cerr << "explain: missing -q \"<query>\"\n";
    return 2;
  }
  const core::Engine engine = core::Engine::open(dir);
  const core::Selection selection = engine.select(*text);
  std::cout << "input:     " << *text << "\n" << selection.explain();
  return 0;
}

int cmd_histogram(const std::string& dir, const Args& args) {
  const auto vx = args.option("-x");
  const auto vy = args.option("-y");
  if (!vx || !vy) {
    std::cerr << "histogram: missing -x/-y variables\n";
    return 2;
  }
  const core::Engine engine = core::Engine::open(dir);
  const std::size_t t = args.size_option("-t", 0);
  const std::size_t bins = args.size_option("--bins", 64);
  core::Selection selection = engine.all();
  if (const auto q = args.option("-q")) selection = engine.select(*q);
  const Histogram2D h = selection.histogram2d(
      t, *vx, *vy, bins, bins,
      args.flag("--adaptive") ? BinningMode::kAdaptive : BinningMode::kUniform);
  std::cout << "histogram " << *vx << " x " << *vy << " @ t=" << t << ": "
            << h.total() << " records, " << h.nonempty_bins() << "/"
            << h.nx() * h.ny() << " bins occupied, max count " << h.max_count()
            << "\n";
  if (const auto csv = args.option("--csv")) {
    io::export_csv(std::filesystem::path(*csv), h);
    std::cout << "wrote " << *csv << "\n";
  }
  return 0;
}

int cmd_stats(const std::string& dir, const Args& args) {
  const auto var = args.option("-v");
  if (!var) {
    std::cerr << "stats: missing -v <variable>\n";
    return 2;
  }
  const core::Engine engine = core::Engine::open(dir);
  const std::size_t t = args.size_option("-t", 0);
  core::Selection selection = engine.all();
  if (const auto q = args.option("-q")) selection = engine.select(*q);
  const core::SummaryStats s = selection.summary(t, *var);
  std::cout << *var << " @ t=" << t
            << (selection.selects_all() ? "" : " | " + selection.query()->to_string())
            << "\n";
  std::cout << "  count  " << s.count << "\n  min    " << s.min << "\n  max    "
            << s.max << "\n  mean   " << s.mean << "\n  stddev " << s.stddev << "\n";
  return 0;
}

int cmd_track(const std::string& dir, const Args& args) {
  const auto text = args.option("-q");
  if (!text) {
    std::cerr << "track: missing -q \"<selection query>\"\n";
    return 2;
  }
  core::ExplorationSession session = core::ExplorationSession::open(dir);
  const std::size_t t_sel =
      args.size_option("--select-at", session.num_timesteps() - 1);
  session.set_focus(*text);
  std::vector<std::uint64_t> ids = session.selected_ids(t_sel);
  const std::size_t limit = args.size_option("--limit", 1000);
  if (ids.size() > limit) ids.resize(limit);
  const std::size_t t_from = args.size_option("--from", 0);
  const std::size_t t_to = args.size_option("--to", session.num_timesteps() - 1);
  const std::vector<std::string> vars =
      split_csv(args.option_or("--vars", "x,px"));
  // Stream the trace: a background prefetcher maps id indices and tracked
  // columns ahead of the sequential track loop. Its bounded queue caps the
  // look-ahead distance, and tracking never probes the bitmap indices, so
  // their (pinned) segment directories are not opened.
  par::Prefetcher prefetch(session.dataset());
  for (std::size_t t = t_from; t <= t_to && t < session.num_timesteps(); ++t) {
    std::vector<std::string> wanted = vars;
    wanted.push_back("id");
    if (!prefetch.request(t, std::move(wanted), /*value_indices=*/false)) break;
  }
  const core::ParticleTracks tracks = session.track(ids, t_from, t_to, vars);
  std::cout << "tracking " << ids.size() << " particles selected at t=" << t_sel
            << " over t=[" << t_from << ", " << t_to << "]\n";
  std::cout << "t,present";
  for (const auto& v : vars) std::cout << ",mean_" << v;
  std::cout << "\n";
  for (std::size_t ti = 0; ti < tracks.timesteps().size(); ++ti) {
    std::cout << tracks.timesteps()[ti] << ',' << tracks.count_present(ti);
    for (const auto& v : vars) std::cout << ',' << tracks.mean(ti, v);
    std::cout << "\n";
  }
  return 0;
}

int cmd_render(const std::string& dir, const Args& args) {
  const auto axes_text = args.option("--axes");
  const auto out = args.option("-o");
  if (!axes_text || !out) {
    std::cerr << "render: missing --axes a,b,c or -o <out.ppm>\n";
    return 2;
  }
  core::ExplorationSession session = core::ExplorationSession::open(dir);
  const std::size_t t = args.size_option("-t", 0);
  if (const auto q = args.option("-q")) session.set_focus(*q);
  core::PcViewOptions options;
  options.context_bins = args.size_option("--bins", 120);
  options.focus_bins = args.size_option("--focus-bins", 256);
  options.context_gamma = args.double_option("--gamma", 1.0);
  const render::Image img =
      session.render_parallel_coordinates(t, split_csv(*axes_text), options);
  img.write_ppm(*out);
  std::cout << "wrote " << *out << " (" << img.width() << "x" << img.height()
            << ")\n";
  return 0;
}

svc::ServiceConfig service_config_from(const Args& args) {
  svc::ServiceConfig config;
  config.max_concurrency = args.size_option("--concurrency", 0);
  if (args.flag("--no-cache")) config.cache_results = false;
  return config;
}

core::Engine open_service_engine(const std::string& dir, const Args& args) {
  io::OpenOptions options = io::default_open_options();
  if (args.option("--budget"))
    options.budget_bytes =
        static_cast<std::uint64_t>(args.size_option("--budget", 0)) << 20;
  return core::Engine(io::Dataset::open(dir, options));
}

int cmd_serve(const std::string& dir, const Args& args) {
  const auto socket = args.option("--socket");
  if (!socket) {
    std::cerr << "serve: missing --socket <path>\n";
    return 2;
  }
  svc::QueryService service(open_service_engine(dir, args),
                            service_config_from(args));
  svc::SocketServer server(service, *socket);
  server.start();
  std::cout << "serving " << dir << " on " << *socket
            << " (line protocol; Ctrl-C to stop)\n";
  for (;;) std::this_thread::sleep_for(std::chrono::seconds(3600));
}

/// Seeded mixed read workload: count / histogram / summary requests over a
/// hot pool (shared, coalescible) and cold unique thresholds.
class BombardWorkload {
 public:
  BombardWorkload(const io::Dataset& dataset, std::uint64_t seed,
                  double dup_fraction, std::size_t hot_pool)
      : timesteps_(dataset.num_timesteps()), dup_fraction_(dup_fraction) {
    for (const char* var : {"px", "x", "y"}) {
      if (std::find(dataset.variables().begin(), dataset.variables().end(),
                    var) != dataset.variables().end())
        domains_.emplace_back(var, dataset.global_domain(var));
    }
    if (domains_.empty())
      domains_.emplace_back(dataset.variables().front(),
                            dataset.global_domain(dataset.variables().front()));
    std::uint64_t state = seed * 2654435761u + 1;
    for (std::size_t i = 0; i < hot_pool; ++i)
      hot_.push_back(make_request(state, /*hot_index=*/static_cast<long>(i)));
  }

  /// The i-th request of @p client (deterministic in (seed, client, i)).
  svc::WireRequest request(std::uint64_t client_seed, std::size_t i) const {
    std::uint64_t state = client_seed * 1099511628211ull + i * 2654435761u + 17;
    if (!hot_.empty() &&
        static_cast<double>(next(state) % 1000) < dup_fraction_ * 1000.0)
      return hot_[next(state) % hot_.size()];
    return make_request(state, /*hot_index=*/-1);
  }

 private:
  static std::uint64_t next(std::uint64_t& state) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  }

  svc::WireRequest make_request(std::uint64_t& state, long hot_index) const {
    svc::WireRequest wire;
    svc::Request& r = wire.request;
    r.timestep = next(state) % std::max<std::size_t>(1, timesteps_);
    const auto& [var, domain] = domains_[next(state) % domains_.size()];
    // Cold thresholds get a fine-grained fraction so repeats are unlikely;
    // hot ones are quantized by pool slot.
    const double frac =
        hot_index >= 0
            ? 0.1 + 0.8 * static_cast<double>(hot_index) /
                        static_cast<double>(std::max(1l, hot_index + 1))
            : static_cast<double>(next(state) % 100000) / 100000.0;
    const double threshold = domain.first + frac * (domain.second - domain.first);
    r.query = var + " > " + qdv::format_double(threshold);
    switch (next(state) % 10) {
      case 0: case 1: case 2: case 3: case 4:
        r.kind = svc::RequestKind::kCount;
        break;
      case 5: case 6: case 7:
        r.kind = svc::RequestKind::kHistogram1D;
        r.var_x = domains_.front().first;
        r.nxbins = 64;
        break;
      case 8:
        r.kind = svc::RequestKind::kHistogram2D;
        r.var_x = domains_.front().first;
        r.var_y = domains_.back().first;
        r.nxbins = r.nybins = 32;
        break;
      default:
        r.kind = svc::RequestKind::kSummary;
        r.var_x = domains_.front().first;
        break;
    }
    r.priority = next(state) % 4 == 0 ? svc::Priority::kInteractive
                                      : svc::Priority::kNormal;
    return wire;
  }

  std::size_t timesteps_;
  double dup_fraction_;
  std::vector<std::pair<std::string, std::pair<double, double>>> domains_;
  std::vector<svc::WireRequest> hot_;
};

/// Seeded zoom/pan workload (--scenario zoom): viewport histograms over
/// variables that carry 1D pyramids, plus a slice conditioned on the pair
/// partner with grid-aligned marginal intervals (served from the pair
/// pyramid), 2D zooms, and ~10% deep zooms whose viewport is too narrow for
/// the requested bins even at the leaf level — the exact-fallback traffic.
/// Viewports are drawn per timestep from that timestep's pyramid domain, so
/// a request is servable by construction unless deliberately deep.
class ZoomWorkload {
 public:
  ZoomWorkload(const io::Dataset& dataset, std::uint64_t seed, std::size_t bins,
               double dup_fraction, std::size_t hot_pool)
      : bins_(bins), dup_fraction_(dup_fraction) {
    for (std::size_t t = 0; t < dataset.num_timesteps(); ++t) {
      Step step;
      step.t = t;
      for (const char* var : {"px", "x", "y"}) {
        const auto pyr = dataset.table(t).pyramid1d(var);
        if (!pyr) continue;
        step.vars.push_back({var, pyr->leaf_edges(0).front(),
                             pyr->leaf_edges(0).back()});
      }
      if (const auto pair = dataset.table(t).pyramid2d("x", "px")) {
        step.pair = true;
        step.x_lo = pair->leaf_edges(0).front();
        step.x_hi = pair->leaf_edges(0).back();
        step.cond_edges = pair->leaf_edges(1);  // px axis of the pair grid
      }
      if (!step.vars.empty()) steps_.push_back(std::move(step));
    }
    if (steps_.empty())
      throw std::runtime_error(
          "zoom scenario needs .pyr pyramids (regenerate without "
          "--no-pyramids)");
    // Hot viewports shared by every client: pan/zoom sessions revisit the
    // same snapped windows, which is what the level-tagged result cache is
    // for. Hot entries are always servable (no deep zooms).
    std::uint64_t state = seed * 2654435761u + 5;
    for (std::size_t i = 0; i < hot_pool; ++i)
      hot_.push_back(make_request(state, /*allow_deep=*/false));
  }

  svc::WireRequest request(std::uint64_t client_seed, std::size_t i) const {
    std::uint64_t state = client_seed * 1099511628211ull + i * 2654435761u + 29;
    if (!hot_.empty() &&
        static_cast<double>(next(state) % 1000) < dup_fraction_ * 1000.0)
      return hot_[next(state) % hot_.size()];
    return make_request(state, /*allow_deep=*/true);
  }

 private:
  struct Var {
    std::string name;
    double lo = 0.0, hi = 0.0;
  };
  struct Step {
    std::size_t t = 0;
    std::vector<Var> vars;
    bool pair = false;
    double x_lo = 0.0, x_hi = 0.0;
    std::vector<double> cond_edges;
  };

  static std::uint64_t next(std::uint64_t& state) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  }

  svc::WireRequest make_request(std::uint64_t& state, bool allow_deep) const {
    const Step& step = steps_[next(state) % steps_.size()];
    svc::WireRequest wire;
    svc::Request& r = wire.request;
    r.timestep = step.t;
    r.nxbins = r.nybins = bins_;
    const auto frac = [&] {
      return static_cast<double>(next(state) % 4096) / 4096.0;
    };
    // Quantize viewports to a modest lattice: repeated snapped windows are
    // what exercises the level-tagged result cache.
    const auto window = [&](double lo, double hi, double span_frac,
                            double& out_lo, double& out_hi) {
      const double span = (hi - lo) * span_frac;
      out_lo = lo + frac() * ((hi - lo) - span);
      out_hi = out_lo + span;
    };
    const std::uint64_t roll = next(state) % 20;
    if (roll < 13 || (roll >= 19 && !allow_deep) ||
        (!step.pair && roll < 19)) {
      // Plain servable 1D zoom, span 15%..90% of the domain.
      const Var& v = step.vars[next(state) % step.vars.size()];
      r.kind = svc::RequestKind::kZoom1D;
      r.var_x = v.name;
      window(v.lo, v.hi, 0.15 + 0.75 * frac(), r.view_lo_x, r.view_hi_x);
    } else if (roll < 16) {
      // Zoom on x conditioned on px, interval aligned to the pair pyramid's
      // px leaf edges (never the top edge: the closed last leaf bin makes a
      // `< domain_hi` condition unservable).
      r.kind = svc::RequestKind::kZoom1D;
      r.var_x = "x";
      window(step.x_lo, step.x_hi, 0.2 + 0.7 * frac(), r.view_lo_x,
             r.view_hi_x);
      const std::size_t n = step.cond_edges.size();
      const std::size_t i0 = next(state) % (n / 2);
      const std::size_t i1 = i0 + 1 + next(state) % (n - 2 - i0);
      r.query = "px >= " + qdv::format_double(step.cond_edges[i0]) +
                " && px < " + qdv::format_double(step.cond_edges[i1]);
    } else if (roll < 19) {
      // Unconditioned 2D zoom over the pair plane.
      r.kind = svc::RequestKind::kZoom2D;
      r.var_x = "x";
      r.var_y = "px";
      window(step.x_lo, step.x_hi, 0.2 + 0.7 * frac(), r.view_lo_x,
             r.view_hi_x);
      window(step.cond_edges.front(), step.cond_edges.back(),
             0.2 + 0.7 * frac(), r.view_lo_y, r.view_hi_y);
    } else {
      // Deep zoom: ~1% span cannot carry bins_ leaf bins -> exact fallback.
      const Var& v = step.vars[next(state) % step.vars.size()];
      r.kind = svc::RequestKind::kZoom1D;
      r.var_x = v.name;
      window(v.lo, v.hi, 0.01, r.view_lo_x, r.view_hi_x);
    }
    r.priority = svc::Priority::kInteractive;
    return wire;
  }

  std::size_t bins_;
  double dup_fraction_;
  std::vector<Step> steps_;
  std::vector<svc::WireRequest> hot_;
};

/// Untimed differential gate of the zoom scenario: every distinct request
/// is answered twice on a direct local engine — pyramid-auto and forced
/// exact — and must match bit for bit (counts and bin edges) before any
/// latency is measured. Returns the number of mismatches.
std::size_t verify_zoom_requests(
    const std::string& dir,
    const std::vector<svc::WireRequest>& distinct, std::size_t& served,
    std::size_t& fallback) {
  const core::Engine direct = core::Engine::open(dir);
  std::size_t failures = 0;
  for (const svc::WireRequest& wire : distinct) {
    const svc::Request& r = wire.request;
    const core::Selection sel =
        r.query.empty() ? direct.all() : direct.select(r.query);
    bool ok = true;
    bool pyramid = false;
    if (r.kind == svc::RequestKind::kZoom1D) {
      const core::Zoom1DResult a = sel.zoom_histogram1d(
          r.timestep, r.var_x, r.view_lo_x, r.view_hi_x, r.nxbins,
          core::ZoomMode::kAuto);
      const core::Zoom1DResult e = sel.zoom_histogram1d(
          r.timestep, r.var_x, r.view_lo_x, r.view_hi_x, r.nxbins,
          core::ZoomMode::kExact);
      ok = a.hist.counts == e.hist.counts &&
           a.hist.bins.edges() == e.hist.bins.edges();
      pyramid = a.pyramid;
    } else {
      const core::Zoom2DResult a = sel.zoom_histogram2d(
          r.timestep, r.var_x, r.var_y, r.view_lo_x, r.view_hi_x, r.view_lo_y,
          r.view_hi_y, r.nxbins, r.nybins, core::ZoomMode::kAuto);
      const core::Zoom2DResult e = sel.zoom_histogram2d(
          r.timestep, r.var_x, r.var_y, r.view_lo_x, r.view_hi_x, r.view_lo_y,
          r.view_hi_y, r.nxbins, r.nybins, core::ZoomMode::kExact);
      ok = a.hist.counts == e.hist.counts &&
           a.hist.xbins.edges() == e.hist.xbins.edges() &&
           a.hist.ybins.edges() == e.hist.ybins.edges();
      pyramid = a.pyramid;
    }
    if (!ok) {
      ++failures;
      std::cerr << "zoom verify mismatch: "
                << svc::format_request_line(wire) << "\n";
    }
    if (pyramid)
      ++served;
    else
      ++fallback;
  }
  return failures;
}

/// --scenario brush: each client owns one named brush and loops
/// edit-then-query — `brush refine` followed by `count ... brush=` — the
/// incremental delta path, recreating the brush every 32 edits to stay
/// within the delta history. Every client tracks its composed query text
/// locally; a cold phase then replays each text as a plain `count q=...`,
/// which re-plans and re-executes the whole AND chain — the no-brush
/// baseline. When self-hosting, the cold phase runs against a fresh
/// server instance so both phases warm their own node-level bitvector
/// caches and neither free-rides on leaves the other already evaluated
/// (an external --socket cannot be restarted; its shared caches favor
/// whichever phase runs second — the cold one, so the comparison stays
/// conservative). The replayed `count=` must equal the brush query's
/// count at the same step (differential exactness gate), and the server's
/// brush_stale counter must be zero.
int run_brush_bombard(const std::string& dir, const Args& args,
                      std::size_t clients, std::size_t edits,
                      std::uint64_t seed) {
  struct Step {  // one edit-then-query measurement
    std::string composed;           // full query text at this epoch
    std::size_t client = 0;
    std::size_t timestep = 0;
    std::uint64_t brush_count = 0;  // count= of the brush-side response
    double edit_us = 0.0;           // `brush refine` round trip
    double query_us = 0.0;          // `count brush=` round trip
  };

  std::vector<std::pair<std::string, std::pair<double, double>>> domains;
  std::size_t timesteps = 1;
  {
    const io::Dataset ds = io::Dataset::open(dir);
    timesteps = std::max<std::size_t>(1, ds.num_timesteps());
    for (const char* var : {"px", "x", "y"})
      if (std::find(ds.variables().begin(), ds.variables().end(), var) !=
          ds.variables().end())
        domains.emplace_back(var, ds.global_domain(var));
    if (domains.empty())
      domains.emplace_back(ds.variables().front(),
                           ds.global_domain(ds.variables().front()));
  }

  const auto next = [](std::uint64_t& state) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  const auto count_of = [](const std::string& body) {
    unsigned long long n = 0;
    const std::size_t pos = body.find("count=");
    if (pos != std::string::npos)
      std::sscanf(body.c_str() + pos, "count=%llu", &n);
    return static_cast<std::uint64_t>(n);
  };
  const auto stat_field = [](const std::string& body, const std::string& key) {
    const std::size_t pos = body.find(" " + key + "=");
    if (pos == std::string::npos) return std::uint64_t{0};
    return static_cast<std::uint64_t>(
        std::strtoull(body.c_str() + pos + key.size() + 2, nullptr, 10));
  };

  // One fresh self-hosted server per phase (see the header comment). With
  // an external --socket both phases talk to that one server.
  std::string socket = args.option_or("--socket", "");
  const bool self_host = socket.empty();
  std::optional<svc::QueryService> service;
  std::optional<svc::SocketServer> server;
  if (self_host)
    socket = (std::filesystem::temp_directory_path() /
              ("qdv_bombard_" + std::to_string(::getpid()) + ".sock"))
                 .string();
  const auto fresh_server = [&] {
    if (!self_host) return;
    if (server) server->stop();
    server.reset();
    service.reset();
    service.emplace(open_service_engine(dir, args), service_config_from(args));
    server.emplace(*service, socket);
    server->start();
  };
  fresh_server();

  std::mutex merge_mutex;
  std::vector<Step> steps;
  std::uint64_t errors = 0;

  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::vector<Step> local;
      local.reserve(edits);
      std::uint64_t local_errors = 0;
      std::uint64_t state = (seed + c + 1) * 1099511628211ull + 13;
      const std::size_t t = c % timesteps;
      const std::string name = "b" + std::to_string(c);
      const std::string query_line =
          "count t=" + std::to_string(t) + " brush=" + name;
      // Base cuts keep most records; each refinement carves a thin random
      // slice out of one variable's domain — the brushing gesture — as
      // `(var <= a || var > b)`. Slice exclusions stay distinct OR
      // conjuncts under canonicalization (interval conjuncts would merge
      // into one canonical interval, letting the cold phase dedupe into
      // the result cache), so every step's canonical plan is new and the
      // cold baseline honestly pays the whole growing chain.
      const auto make_base = [&] {
        const auto& [var, domain] = domains[next(state) % domains.size()];
        const double f =
            0.05 + 0.15 * static_cast<double>(next(state) % 1000) / 1000.0;
        return var + " > " +
               qdv::format_double(domain.first +
                                  f * (domain.second - domain.first));
      };
      const auto make_refine = [&] {
        const auto& [var, domain] = domains[next(state) % domains.size()];
        const double span = domain.second - domain.first;
        const double lo =
            domain.first +
            (0.10 + 0.78 * static_cast<double>(next(state) % 4096) / 4096.0) *
                span;
        const double hi =
            lo + (0.02 + 0.03 * static_cast<double>(next(state) % 1000) /
                             1000.0) *
                     span;
        return "(" + var + " <= " + qdv::format_double(lo) + " || " + var +
               " > " + qdv::format_double(hi) + ")";
      };
      try {
        svc::SocketClient client{std::filesystem::path(socket)};
        std::string composed;
        std::string body;
        const auto create = [&] {
          composed = make_base();
          if (!svc::parse_response_line(
                  client.request("brush create name=" + name +
                                 " q=" + composed),
                  body))
            ++local_errors;
        };
        create();
        for (std::size_t i = 0; i < edits; ++i) {
          if (i > 0 && i % core::Brush::kMaxHistory == 0) {
            if (!svc::parse_response_line(
                    client.request("brush drop name=" + name), body))
              ++local_errors;
            create();
          }
          const std::string extra = make_refine();
          const auto t0 = std::chrono::steady_clock::now();
          const std::string edit_reply =
              client.request("brush refine name=" + name + " q=" + extra);
          const auto t1 = std::chrono::steady_clock::now();
          const std::string query_reply = client.request(query_line);
          const auto t2 = std::chrono::steady_clock::now();
          composed += " && " + extra;
          Step step;
          step.composed = composed;
          step.client = c;
          step.timestep = t;
          step.edit_us =
              std::chrono::duration<double, std::micro>(t1 - t0).count();
          step.query_us =
              std::chrono::duration<double, std::micro>(t2 - t1).count();
          if (!svc::parse_response_line(edit_reply, body)) ++local_errors;
          if (!svc::parse_response_line(query_reply, body)) {
            ++local_errors;
          } else {
            step.brush_count = count_of(body);
          }
          local.push_back(std::move(step));
        }
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(merge_mutex);
        std::cerr << "brush client " << c << ": " << e.what() << "\n";
        ++local_errors;
      }
      std::lock_guard<std::mutex> lock(merge_mutex);
      steps.insert(steps.end(), std::make_move_iterator(local.begin()),
                   std::make_move_iterator(local.end()));
      errors += local_errors;
    });
  }
  for (std::thread& t : threads) t.join();

  // Brush-phase server stats (the brush counters live on this instance;
  // read them before the cold phase replaces it).
  std::string server_stats = "unavailable";
  std::uint64_t stale_hits = 0, delta_evals = 0, full_evals = 0;
  try {
    svc::SocketClient client{std::filesystem::path(socket)};
    std::string body;
    if (svc::parse_response_line(client.request("stats"), body)) {
      server_stats = body;
      stale_hits = stat_field(body, "brush_stale");
      delta_evals = stat_field(body, "brush_delta");
      full_evals = stat_field(body, "brush_full");
    }
  } catch (const std::exception&) {
    // Report latencies even when the server died mid-run.
  }

  fresh_server();

  // Cold baseline + differential gate: every composed text replayed as a
  // plain query must execute from scratch (distinct texts, distinct keys,
  // cold caches) and report exactly the count the delta path reported.
  // Replayed at the same concurrency as the brush phase — one connection
  // per original client, each walking its own chain in order — so queue
  // contention is matched, not a thumb on either scale.
  std::vector<double> cold_us;
  cold_us.reserve(steps.size());
  std::size_t verify_failures = 0;
  std::uint64_t cold_cached = 0;
  {
    std::vector<std::thread> cold_threads;
    cold_threads.reserve(clients);
    for (std::size_t c = 0; c < clients; ++c) {
      cold_threads.emplace_back([&, c] {
        std::vector<double> local_us;
        std::size_t local_failures = 0;
        std::uint64_t local_errors = 0;
        try {
          svc::SocketClient client{std::filesystem::path(socket)};
          for (const Step& step : steps) {
            if (step.client != c) continue;
            const std::string line = "count t=" +
                                     std::to_string(step.timestep) +
                                     " q=" + step.composed;
            const auto start = std::chrono::steady_clock::now();
            const std::string reply = client.request(line);
            local_us.push_back(std::chrono::duration<double, std::micro>(
                                   std::chrono::steady_clock::now() - start)
                                   .count());
            std::string body;
            if (!svc::parse_response_line(reply, body)) {
              ++local_errors;
            } else if (count_of(body) != step.brush_count) {
              ++local_failures;
              std::lock_guard<std::mutex> lock(merge_mutex);
              std::cerr << "brush verify mismatch: brush said "
                        << step.brush_count << ", cold re-execution said "
                        << count_of(body) << " for " << line << "\n";
            }
          }
        } catch (const std::exception& e) {
          std::lock_guard<std::mutex> lock(merge_mutex);
          std::cerr << "cold baseline client " << c << ": " << e.what()
                    << "\n";
          ++local_errors;
        }
        std::lock_guard<std::mutex> lock(merge_mutex);
        cold_us.insert(cold_us.end(), local_us.begin(), local_us.end());
        verify_failures += local_failures;
        errors += local_errors;
      });
    }
    for (std::thread& t : cold_threads) t.join();
  }
  try {
    svc::SocketClient client{std::filesystem::path(socket)};
    std::string body;
    if (svc::parse_response_line(client.request("stats"), body))
      cold_cached = stat_field(body, "cached");
  } catch (const std::exception&) {
  }
  if (server) server->stop();

  std::vector<double> brush_us, edit_us, query_us;
  brush_us.reserve(steps.size());
  edit_us.reserve(steps.size());
  query_us.reserve(steps.size());
  for (const Step& step : steps) {
    brush_us.push_back(step.edit_us + step.query_us);
    edit_us.push_back(step.edit_us);
    query_us.push_back(step.query_us);
  }
  std::sort(brush_us.begin(), brush_us.end());
  std::sort(edit_us.begin(), edit_us.end());
  std::sort(query_us.begin(), query_us.end());
  std::sort(cold_us.begin(), cold_us.end());
  const auto brush_at = [&](double q) {
    return svc::sorted_percentile(brush_us, q);
  };
  const auto cold_at = [&](double q) {
    return svc::sorted_percentile(cold_us, q);
  };
  const double speedup_p50 =
      brush_at(0.50) > 0.0 ? cold_at(0.50) / brush_at(0.50) : 0.0;

  std::ostringstream json;
  json << "{\n"
       << "  \"workload\": {\"clients\": " << clients
       << ", \"edits_per_client\": " << edits << ", \"seed\": " << seed
       << ", \"scenario\": \"brush\"},\n"
       << "  \"brush\": {\"steps\": " << steps.size()
       << ", \"p50_us\": " << brush_at(0.50)
       << ", \"p95_us\": " << brush_at(0.95)
       << ", \"p99_us\": " << brush_at(0.99)
       << ", \"refine_p50_us\": " << svc::sorted_percentile(edit_us, 0.50)
       << ", \"query_p50_us\": " << svc::sorted_percentile(query_us, 0.50)
       << ", \"delta_evals\": " << delta_evals
       << ", \"full_evals\": " << full_evals << "},\n"
       << "  \"cold\": {\"steps\": " << cold_us.size()
       << ", \"p50_us\": " << cold_at(0.50)
       << ", \"p95_us\": " << cold_at(0.95)
       << ", \"p99_us\": " << cold_at(0.99)
       << ", \"result_cache_hits\": " << cold_cached << "},\n"
       << "  \"speedup_p50\": " << speedup_p50 << ",\n"
       << "  \"verify_failures\": " << verify_failures << ",\n"
       << "  \"stale_hits\": " << stale_hits << ",\n"
       << "  \"errors\": " << errors << ",\n"
       << "  \"server_stats\": \"" << server_stats << "\"\n"
       << "}\n";
  std::cout << "brush: " << steps.size() << " edit-then-query steps, p50 "
            << brush_at(0.50) << " us (refine "
            << svc::sorted_percentile(edit_us, 0.50) << " + query "
            << svc::sorted_percentile(query_us, 0.50) << ") vs cold p50 "
            << cold_at(0.50) << " us (speedup " << speedup_p50 << "x), "
            << delta_evals << " delta / " << full_evals << " full evals, "
            << verify_failures << " verify failures, " << stale_hits
            << " stale hits, " << errors << " errors\n";
  std::cout << "server: " << server_stats << "\n";
  if (const auto out = args.option("--json")) {
    std::ofstream file(*out);
    file << json.str();
    std::cout << "wrote " << *out << "\n";
  } else {
    std::cout << json.str();
  }
  return errors == 0 && verify_failures == 0 && stale_hits == 0 ? 0 : 1;
}

int cmd_bombard(const std::string& dir, const Args& args) {
  const std::size_t clients = args.size_option("--clients", 8);
  const std::size_t requests = args.size_option("--requests", 200);
  const std::uint64_t seed = args.size_option("--seed", 42);
  const double dup = args.double_option("--dup", 0.5);
  const std::size_t hot_pool = args.size_option("--hot", 8);
  const std::string scenario = args.option_or("--scenario", "mixed");
  const std::size_t zoom_bins = args.size_option("--bins", 64);
  if (scenario != "mixed" && scenario != "zoom" && scenario != "brush") {
    std::cerr << "bombard: unknown --scenario '" << scenario
              << "' (use mixed | zoom | brush)\n";
    return 2;
  }

  // --chaos: seeded fault injection on the service socket I/O. Only faults
  // the line transport survives (EINTR, short transfers, latency) are in
  // the default spec — the line protocol carries no payload checksums, so
  // a silent bit flip is not a survivable fault, and a reset fails the
  // client's connection outright.
  const bool chaos = args.flag("--chaos");
  const std::string chaos_spec = args.option_or(
      "--chaos-spec", "seed:" + std::to_string(seed) +
                          ",spec:svc.eintr@0.05,spec:svc.short@0.05"
                          ",spec:svc.delay@0.01");
  if (chaos) {
    std::string error;
    if (!fault::configure(chaos_spec, &error)) {
      std::cerr << "bombard: bad --chaos-spec: " << error << "\n";
      return 2;
    }
  }

  // The brush scenario drives its own edit-then-query protocol exchange
  // (stateful per client) and manages its own per-phase servers, so it
  // bypasses the shared self-hosting and request matrix below.
  if (scenario == "brush")
    return run_brush_bombard(dir, args, clients, requests, seed);

  // Self-host unless pointed at an external server: spin up the service and
  // a socket in-process so one command measures the full wire path.
  std::optional<svc::QueryService> service;
  std::optional<svc::SocketServer> server;
  std::string socket = args.option_or("--socket", "");
  if (socket.empty()) {
    socket = (std::filesystem::temp_directory_path() /
              ("qdv_bombard_" + std::to_string(::getpid()) + ".sock"))
                 .string();
    service.emplace(open_service_engine(dir, args), service_config_from(args));
    server.emplace(*service, socket);
    server->start();
  }

  // Materialize the whole request matrix up front: the zoom scenario's
  // verify and exact-baseline phases must see exactly the lines the timed
  // phase will send.
  std::vector<std::vector<std::string>> lines(clients);
  std::vector<svc::WireRequest> distinct;  // zoom scenario only
  {
    const io::Dataset ds = io::Dataset::open(dir);
    std::unordered_set<std::string> seen;
    if (scenario == "zoom") {
      const ZoomWorkload workload(ds, seed, zoom_bins, dup, hot_pool);
      for (std::size_t c = 0; c < clients; ++c)
        for (std::size_t i = 0; i < requests; ++i) {
          const svc::WireRequest wire = workload.request(seed + c + 1, i);
          lines[c].push_back(svc::format_request_line(wire));
          if (seen.insert(lines[c].back()).second) distinct.push_back(wire);
        }
    } else {
      const BombardWorkload workload(ds, seed, dup, hot_pool);
      for (std::size_t c = 0; c < clients; ++c)
        for (std::size_t i = 0; i < requests; ++i)
          lines[c].push_back(
              svc::format_request_line(workload.request(seed + c + 1, i)));
    }
  }

  // Phase A (zoom): differential verification BEFORE any timing — a
  // mismatch makes the whole run exit nonzero, so no benchmark number can
  // come from an unverified pyramid path.
  std::size_t zoom_verify_failures = 0;
  std::size_t zoom_served = 0, zoom_fallback = 0;
  if (scenario == "zoom") {
    zoom_verify_failures =
        verify_zoom_requests(dir, distinct, zoom_served, zoom_fallback);
    std::cout << "zoom verify: " << distinct.size() << " distinct requests, "
              << zoom_served << " pyramid-servable, " << zoom_fallback
              << " exact-fallback, " << zoom_verify_failures
              << " mismatches\n";
  }

  // Phase B: the timed wire run. Zoom responses are tagged pyr=0|1, so the
  // client can split latencies by serving tier without trusting server
  // counters.
  std::mutex merge_mutex;
  std::vector<double> latencies_us;
  std::vector<double> pyramid_latencies_us;
  std::uint64_t pyr_responses = 0, zoom_responses = 0;
  std::uint64_t errors = 0;
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::vector<double> local, local_pyr;
      local.reserve(requests);
      std::uint64_t local_errors = 0, local_pyr_hits = 0, local_zoom = 0;
      // A dead socket or a dropped connection is a counted failure, not a
      // std::terminate: the run still produces its report and exits 1.
      try {
        svc::SocketClient client{std::filesystem::path(socket)};
        for (std::size_t i = 0; i < requests; ++i) {
          const std::string& line = lines[c][i];
          const auto start = std::chrono::steady_clock::now();
          const std::string response = client.request(line);
          const double us = std::chrono::duration<double, std::micro>(
                                std::chrono::steady_clock::now() - start)
                                .count();
          local.push_back(us);
          std::string body;
          if (!svc::parse_response_line(response, body)) ++local_errors;
          if (body.find(" pyr=") != std::string::npos) {
            ++local_zoom;
            if (body.find(" pyr=1") != std::string::npos) {
              ++local_pyr_hits;
              local_pyr.push_back(us);
            }
          }
        }
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(merge_mutex);
        std::cerr << "client " << c << ": " << e.what() << "\n";
        ++local_errors;
      }
      std::lock_guard<std::mutex> lock(merge_mutex);
      latencies_us.insert(latencies_us.end(), local.begin(), local.end());
      pyramid_latencies_us.insert(pyramid_latencies_us.end(),
                                  local_pyr.begin(), local_pyr.end());
      pyr_responses += local_pyr_hits;
      zoom_responses += local_zoom;
      errors += local_errors;
    });
  }
  for (std::thread& t : threads) t.join();

  // Phase C (zoom): sequential exact=1 re-run of the distinct requests —
  // the honest no-pyramid baseline (exact-mode zooms are never answered
  // from or stored in the result cache).
  std::vector<double> exact_latencies_us;
  if (scenario == "zoom") {
    try {
      svc::SocketClient client{std::filesystem::path(socket)};
      for (svc::WireRequest wire : distinct) {
        wire.request.zoom_mode = core::ZoomMode::kExact;
        const std::string line = svc::format_request_line(wire);
        const auto start = std::chrono::steady_clock::now();
        const std::string response = client.request(line);
        exact_latencies_us.push_back(
            std::chrono::duration<double, std::micro>(
                std::chrono::steady_clock::now() - start)
                .count());
        std::string body;
        if (!svc::parse_response_line(response, body)) ++errors;
      }
    } catch (const std::exception& e) {
      std::cerr << "exact baseline: " << e.what() << "\n";
      ++errors;
    }
  }

  std::string server_stats = "unavailable";
  try {
    svc::SocketClient client{std::filesystem::path(socket)};
    std::string body;
    if (svc::parse_response_line(client.request("stats"), body))
      server_stats = body;
  } catch (const std::exception&) {
    // Report latencies even when the server died mid-run.
  }

  // Chaos accounting: what the injector actually fired. Injection stops
  // here — the verify phase below measures what state the chaos left
  // behind, not fresh faults.
  std::ostringstream chaos_json;
  if (chaos) {
    const auto svc_site = [](fault::Kind kind) {
      return fault::injected(fault::Site::kSvc, kind);
    };
    chaos_json << "  \"chaos\": {\"spec\": \"" << chaos_spec
               << "\", \"injected\": {\"svc.eintr\": "
               << svc_site(fault::Kind::kEintr)
               << ", \"svc.short\": " << svc_site(fault::Kind::kShortRead)
               << ", \"svc.delay\": " << svc_site(fault::Kind::kLatency)
               << ", \"svc.reset\": " << svc_site(fault::Kind::kConnReset)
               << "}, \"injected_total\": " << fault::injected_total()
               << "},\n";
    std::cout << "chaos: " << fault::injected_total()
              << " faults injected (spec " << chaos_spec << ")\n";
    fault::reset();
  }

  // Self-hosted differential guard: one count per timestep through the
  // service socket, checked against a direct column-scan engine. A
  // mismatch (or a dropped request) fails the run.
  std::size_t verify_failures = 0;
  if (server) {
    const core::Engine oracle(io::Dataset::open(dir), EvalMode::kScan);
    const io::Dataset& ds = oracle.dataset();
    const std::string& var = ds.variables().front();
    const auto domain = ds.global_domain(var);
    const std::string query =
        var + " > " +
        qdv::format_double(domain.first + 0.5 * (domain.second - domain.first));
    const core::Selection expected = oracle.select(query);
    try {
      svc::SocketClient client{std::filesystem::path(socket)};
      for (std::size_t t = 0; t < ds.num_timesteps(); ++t) {
        svc::WireRequest wire;
        wire.request.kind = svc::RequestKind::kCount;
        wire.request.timestep = t;
        wire.request.query = query;
        std::string body;
        const bool ok = svc::parse_response_line(
            client.request(svc::format_request_line(wire)), body);
        const std::string want = "count=" + std::to_string(expected.count(t));
        if (!ok || body.rfind(want + " ", 0) != 0) ++verify_failures;
      }
    } catch (const std::exception& e) {
      std::cerr << "verify: " << e.what() << "\n";
      ++verify_failures;
    }
    std::cout << "verify: " << ds.num_timesteps()
              << " per-timestep counts vs column scan, " << verify_failures
              << " mismatches\n";
    server->stop();
  }

  std::sort(latencies_us.begin(), latencies_us.end());
  const auto at = [&](double q) { return svc::sorted_percentile(latencies_us, q); };
  double mean = 0.0;
  for (const double v : latencies_us) mean += v;
  if (!latencies_us.empty()) mean /= static_cast<double>(latencies_us.size());

  std::ostringstream pyramid_json;
  if (scenario == "zoom") {
    std::sort(pyramid_latencies_us.begin(), pyramid_latencies_us.end());
    std::sort(exact_latencies_us.begin(), exact_latencies_us.end());
    const auto pyr_at = [&](double q) {
      return svc::sorted_percentile(pyramid_latencies_us, q);
    };
    const auto exact_at = [&](double q) {
      return svc::sorted_percentile(exact_latencies_us, q);
    };
    const double hit_rate =
        zoom_responses == 0 ? 0.0
                            : static_cast<double>(pyr_responses) /
                                  static_cast<double>(zoom_responses);
    pyramid_json << "  \"pyramid\": {\"verified\": " << distinct.size()
                 << ", \"verify_failures\": " << zoom_verify_failures
                 << ", \"served\": " << zoom_served
                 << ", \"fallback\": " << zoom_fallback
                 << ", \"hit_rate\": " << hit_rate
                 << ", \"bins\": " << zoom_bins
                 << ",\n    \"latency_us\": {\"p50\": " << pyr_at(0.50)
                 << ", \"p95\": " << pyr_at(0.95)
                 << ", \"p99\": " << pyr_at(0.99)
                 << "},\n    \"exact_latency_us\": {\"p50\": " << exact_at(0.50)
                 << ", \"p95\": " << exact_at(0.95)
                 << ", \"p99\": " << exact_at(0.99) << "}},\n";
    std::cout << "pyramid: hit rate " << hit_rate << " (" << pyr_responses
              << "/" << zoom_responses << " wire responses), served p99 "
              << pyr_at(0.99) << " us vs exact p50 " << exact_at(0.50)
              << " us\n";
  }

  std::ostringstream json;
  json << "{\n"
       << "  \"workload\": {\"clients\": " << clients
       << ", \"requests_per_client\": " << requests << ", \"seed\": " << seed
       << ", \"dup_fraction\": " << dup << ", \"hot_pool\": " << hot_pool
       << ", \"scenario\": \"" << scenario << "\"},\n"
       << "  \"latency_us\": {\"p50\": " << at(0.50) << ", \"p95\": " << at(0.95)
       << ", \"p99\": " << at(0.99)
       << ", \"max\": " << (latencies_us.empty() ? 0.0 : latencies_us.back())
       << ", \"mean\": " << mean << "},\n"
       << "  \"errors\": " << errors << ",\n"
       << "  \"verify_failures\": " << verify_failures << ",\n"
       << pyramid_json.str()
       << chaos_json.str()
       << "  \"server_stats\": \"" << server_stats << "\"\n"
       << "}\n";
  std::cout << "bombard: " << clients << " clients x " << requests
            << " requests, p50 " << at(0.50) << " us, p95 " << at(0.95)
            << " us, p99 " << at(0.99) << " us, " << errors << " errors\n";
  std::cout << "server: " << server_stats << "\n";
  if (const auto out = args.option("--json")) {
    std::ofstream file(*out);
    file << json.str();
    std::cout << "wrote " << *out << "\n";
  } else {
    std::cout << json.str();
  }
  return errors == 0 && verify_failures == 0 && zoom_verify_failures == 0 ? 0
                                                                          : 1;
}

void usage() {
  std::cout <<
      R"(qdv_tool — query-driven exploration of particle datasets

usage: qdv_tool <command> <dataset-dir> [options]

commands:
  generate   create a synthetic wakefield dataset (+ indices)
  info       dataset summary
  query      evaluate a Boolean range / id query at one timestep
  explain    print the canonicalized execution plan of a query
  histogram  conditional 2D histogram (optionally exported as CSV)
  stats      conditional summary statistics of one variable
  track      select particles, trace them across timesteps
  render     histogram-based parallel coordinates to a PPM image
  serve      host the dataset as a concurrent query service (unix socket)
  bombard    replay a seeded concurrent workload against a service
  fsck       verify every on-disk artifact against its checksum sidecars
  corrupt    flip one byte of one artifact (integrity drills, CI chaos)

run a command without options to see its required arguments.
full reference: docs/qdv_tool.md
)";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && (std::strcmp(argv[1], "--help") == 0 ||
                    std::strcmp(argv[1], "-h") == 0 ||
                    std::strcmp(argv[1], "help") == 0)) {
    usage();
    return 0;
  }
  if (argc < 3) {
    usage();
    return argc < 2 ? 0 : 2;
  }
  const std::string command = argv[1];
  const std::string dir = argv[2];
  const Args args(argc - 2, argv + 2);
  try {
    if (command == "generate") return cmd_generate(dir, args);
    if (command == "info") return cmd_info(dir);
    if (command == "query") return cmd_query(dir, args);
    if (command == "explain") return cmd_explain(dir, args);
    if (command == "histogram") return cmd_histogram(dir, args);
    if (command == "stats") return cmd_stats(dir, args);
    if (command == "track") return cmd_track(dir, args);
    if (command == "render") return cmd_render(dir, args);
    if (command == "serve") return cmd_serve(dir, args);
    if (command == "bombard") return cmd_bombard(dir, args);
    if (command == "fsck") return cmd_fsck(dir, args);
    if (command == "corrupt") return cmd_corrupt(dir, args);
    std::cerr << "unknown command '" << command << "'\n";
    usage();
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
