// Parallel-coordinates rasteriser suite: draw_histogram_layer (column by
// column, spans in bin order) against the per-pixel quad fill it replaced,
// kept here as the reference, on seeded corpora of histograms, styles and
// canvases. Images are compared as written PPM bytes, which is what every
// example and qdv_tool render emit, and must be identical: both rasterisers
// give each pixel the same float adds in the same order.
//
// Two corpora. The faint one draws white quads whose intensities are
// multiples of 2^-13 in [2^-8, 2^-7], so few pixels saturate and a span
// end off by one changes the bytes almost wherever it lands. The general
// one draws palette colours with gamma != 1 and max_alpha < 1, over the
// frame and under a second layer, where the float summation order decides
// bytes near 8-bit rounding boundaries.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "render/pc_plot.hpp"
#include "test_common.hpp"

namespace {

using namespace qdv;
using render::Color;
using render::Image;
using render::PcAxis;
using render::PcLayout;
using render::PcStyle;

// ParallelCoordinatesPlot's geometry, restated for the reference.
double ref_axis_x(const PcLayout& layout, std::size_t naxes, std::size_t axis) {
  const double usable = static_cast<double>(layout.width - 2 * layout.margin);
  return static_cast<double>(layout.margin) +
         usable * static_cast<double>(axis) / static_cast<double>(naxes - 1);
}

double ref_value_y(const PcLayout& layout, const PcAxis& a, double value) {
  const double span = a.hi > a.lo ? a.hi - a.lo : 1.0;
  const double t = std::clamp((value - a.lo) / span, 0.0, 1.0);
  const double usable = static_cast<double>(layout.height - 2 * layout.margin);
  return static_cast<double>(layout.height - layout.margin) - t * usable;
}

// The per-pixel quad fill: every non-empty bin adds each pixel of its quad,
// column by column, to the image.
void ref_histogram_layer(Image& image, const std::vector<PcAxis>& axes,
                         const PcLayout& layout,
                         const std::vector<Histogram2D>& hists,
                         const PcStyle& style) {
  const std::size_t npairs = std::min(hists.size(), axes.size() - 1);
  for (std::size_t pair = 0; pair < npairs; ++pair) {
    const Histogram2D& h = hists[pair];
    const std::uint64_t maxc = h.max_count();
    if (maxc == 0) continue;
    const double xl = ref_axis_x(layout, axes.size(), pair);
    const double xr = ref_axis_x(layout, axes.size(), pair + 1);
    const auto px0 = static_cast<std::ptrdiff_t>(std::ceil(xl));
    const auto px1 = static_cast<std::ptrdiff_t>(std::floor(xr));
    for (std::size_t bx = 0; bx < h.nx(); ++bx) {
      for (std::size_t by = 0; by < h.ny(); ++by) {
        const std::uint64_t c = h.at(bx, by);
        if (c == 0) continue;
        const float intensity =
            style.max_alpha *
            static_cast<float>(std::pow(static_cast<double>(c) /
                                            static_cast<double>(maxc),
                                        style.gamma));
        const double la = ref_value_y(layout, axes[pair], h.xbins.edges()[bx]);
        const double lb = ref_value_y(layout, axes[pair], h.xbins.edges()[bx + 1]);
        const double ra = ref_value_y(layout, axes[pair + 1], h.ybins.edges()[by]);
        const double rb = ref_value_y(layout, axes[pair + 1], h.ybins.edges()[by + 1]);
        for (std::ptrdiff_t px = px0; px <= px1; ++px) {
          const double t = (static_cast<double>(px) - xl) / (xr - xl);
          const double ya = la + (ra - la) * t;
          const double yb = lb + (rb - lb) * t;
          const auto ylo = static_cast<std::ptrdiff_t>(std::lround(std::min(ya, yb)));
          const auto yhi = static_cast<std::ptrdiff_t>(std::lround(std::max(ya, yb)));
          for (std::ptrdiff_t y = ylo; y <= yhi; ++y)
            image.add(px, y, style.color, intensity);
        }
      }
    }
  }
}

std::string ppm_bytes(const Image& image, const std::filesystem::path& path) {
  image.write_ppm(path);
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

const std::filesystem::path& out_dir() {
  static const std::filesystem::path dir = qdv::test::scratch_dir("render");
  return dir;
}

/// Bins over [lo, hi]: uniform, or with random interior edges (adaptive).
Bins random_bins(std::mt19937_64& rng, double lo, double hi, std::size_t n,
                 bool adaptive) {
  std::vector<double> edges(n + 1);
  if (adaptive) {
    std::uniform_real_distribution<double> u(lo, hi);
    edges.front() = lo;
    edges.back() = hi;
    for (std::size_t i = 1; i < n; ++i) edges[i] = u(rng);
    std::sort(edges.begin(), edges.end());
  } else {
    for (std::size_t i = 0; i <= n; ++i)
      edges[i] = lo + (hi - lo) * static_cast<double>(i) / static_cast<double>(n);
  }
  return Bins(std::move(edges));
}

/// Faint styles: white, gamma 1, max_alpha 2^-7 and counts in [32, 64] with
/// a maximum of 64, so each quad adds a multiple of 2^-13 in [2^-8, 2^-7].
constexpr float kFaintAlpha = 0x1p-7f;

PcStyle faint_style() {
  PcStyle style;
  style.color = render::colors::kWhite;
  style.max_alpha = kFaintAlpha;
  style.gamma = 1.0;
  return style;
}

/// A histogram whose edges run up to a quarter of the span past the axis
/// domain on either side, with a given share of empty bins. Faint
/// histograms have at most 16 bins a side, so few pixels stack enough
/// quads to saturate.
Histogram2D random_hist(std::mt19937_64& rng, const PcAxis& left,
                        const PcAxis& right, double empty_share, bool faint) {
  std::uniform_int_distribution<std::size_t> nbins(1, faint ? 16 : 40);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  const auto domain = [&](const PcAxis& a, double& lo, double& hi) {
    const double span = a.hi - a.lo;
    lo = a.lo - 0.25 * span * u(rng) + 0.2 * span * u(rng);
    hi = a.hi + 0.25 * span * u(rng) - 0.2 * span * u(rng);
  };
  double xlo, xhi, ylo, yhi;
  domain(left, xlo, xhi);
  domain(right, ylo, yhi);
  Histogram2D h;
  h.xbins = random_bins(rng, xlo, xhi, nbins(rng), u(rng) < 0.5);
  h.ybins = random_bins(rng, ylo, yhi, nbins(rng), u(rng) < 0.5);
  h.counts.assign(h.nx() * h.ny(), 0);
  std::uniform_int_distribution<std::uint64_t> count(
      faint ? 32 : 1, faint ? 64 : (u(rng) < 0.5 ? 7 : 100000));
  for (auto& c : h.counts)
    if (u(rng) >= empty_share) c = count(rng);
  if (faint) {
    const auto first = std::find_if(h.counts.begin(), h.counts.end(),
                                    [](std::uint64_t c) { return c != 0; });
    if (first != h.counts.end()) *first = 64;
  }
  return h;
}

struct Case {
  std::vector<PcAxis> axes;
  PcLayout layout;
  std::vector<Histogram2D> hists;
  PcStyle style;
};

std::string axis_name(std::size_t a) { return std::string(1, static_cast<char>('a' + a)); }

Case random_case(std::uint64_t seed, bool faint) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  Case c;
  const std::size_t naxes = 2 + rng() % 4;
  for (std::size_t a = 0; a < naxes; ++a) {
    const double lo = -50.0 + 100.0 * u(rng);
    c.axes.push_back({axis_name(a), lo, lo + 0.5 + 200.0 * u(rng)});
  }
  c.layout.margin = rng() % 4 == 0 ? 0 : rng() % 12;
  c.layout.width = 2 * c.layout.margin + 4 + rng() % 300;
  c.layout.height = 2 * c.layout.margin + 4 + rng() % 200;
  // Sometimes more histograms than axis pairs: the extra ones are ignored.
  const std::size_t nhists = naxes - 1 + (rng() % 3 == 0 ? 1 + rng() % 2 : 0);
  const double empty_share = u(rng);
  for (std::size_t p = 0; p < nhists; ++p)
    c.hists.push_back(random_hist(rng, c.axes[std::min(p, naxes - 2)],
                                  c.axes[std::min(p + 1, naxes - 1)],
                                  empty_share, faint));
  if (faint) {
    c.style = faint_style();
  } else {
    const double gammas[] = {1.0, 0.5, 2.2, 0.35};
    const float alphas[] = {1.0f, 0.3f, 0.85f, 0.05f};
    c.style.gamma = gammas[rng() % 4];
    c.style.max_alpha = alphas[rng() % 4];
    c.style.color = render::palette_color(rng() % 9);
  }
  return c;
}

/// Draws @p layers histogram layers (the later ones in other colours) both
/// ways, on the frame when @p frame, and compares the PPM bytes.
bool identical(const Case& c, const std::string& name, int layers = 1,
               bool frame = false) {
  render::ParallelCoordinatesPlot plot(c.axes, c.layout);
  if (frame) plot.draw_frame();
  Image ref = plot.image();
  PcStyle style = c.style;
  for (int layer = 0; layer < layers; ++layer) {
    plot.draw_histogram_layer(c.hists, style);
    ref_histogram_layer(ref, c.axes, c.layout, c.hists, style);
    style.color = render::palette_color(static_cast<std::size_t>(layer) + 3);
    style.gamma = 1.0;
  }
  const std::string got = ppm_bytes(plot.image(), out_dir() / (name + "_new.ppm"));
  const std::string want = ppm_bytes(ref, out_dir() / (name + "_ref.ppm"));
  if (got.size() != want.size()) {
    std::fprintf(stderr, "%s: PPM sizes differ\n", name.c_str());
    return false;
  }
  std::size_t bytes = 0;
  for (std::size_t i = 0; i < got.size(); ++i) bytes += got[i] != want[i];
  if (bytes != 0)
    std::fprintf(stderr, "%s: %zu PPM bytes differ from the reference\n",
                 name.c_str(), bytes);
  return bytes == 0;
}

void test_faint_corpus_is_byte_identical() {
  int mismatches = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed)
    if (!identical(random_case(seed, /*faint=*/true), "faint")) {
      std::fprintf(stderr, "  (faint corpus seed %llu)\n",
                   static_cast<unsigned long long>(seed));
      ++mismatches;
    }
  CHECK_EQ(mismatches, 0);
}

/// Palette colours, gamma != 1, max_alpha < 1, the frame underneath and a
/// second layer on top.
void test_general_corpus_is_byte_identical() {
  int mismatches = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed)
    if (!identical(random_case(seed, /*faint=*/false), "general",
                   1 + static_cast<int>(seed % 2), /*frame=*/true)) {
      std::fprintf(stderr, "  (general corpus seed %llu)\n",
                   static_cast<unsigned long long>(seed));
      ++mismatches;
    }
  CHECK_EQ(mismatches, 0);
}

Case fixed_case(std::size_t naxes, PcLayout layout) {
  Case c;
  for (std::size_t a = 0; a < naxes; ++a) c.axes.push_back({axis_name(a), 0.0, 10.0});
  c.layout = layout;
  std::mt19937_64 rng(naxes * 1000 + layout.width);
  for (std::size_t p = 0; p + 1 < naxes; ++p)
    c.hists.push_back(random_hist(rng, c.axes[p], c.axes[p + 1], 0.3, /*faint=*/true));
  c.style = faint_style();
  return c;
}

void test_edge_cases_are_byte_identical() {
  // 320 wide, margin 16, three axes: the middle axis sits on column 160,
  // which both pairs draw.
  CHECK(identical(fixed_case(3, PcLayout{320, 180, 16}), "shared_column"));

  // An all-zero histogram (max_count() == 0) next to a populated one.
  Case zero = fixed_case(3, PcLayout{200, 120, 10});
  std::fill(zero.hists[0].counts.begin(), zero.hists[0].counts.end(), 0);
  CHECK_EQ(zero.hists[0].max_count(), 0u);
  CHECK(identical(zero, "all_zero"));

  // Axes 0.6 px apart: the pair between x = 3.2 and x = 3.8 has no pixel
  // column (px0 = 4 > px1 = 3).
  CHECK(identical(fixed_case(11, PcLayout{10, 40, 2}), "narrow"));

  // No margin: quads reach the last column and the bottom row, where the
  // raster clips them.
  CHECK(identical(fixed_case(4, PcLayout{90, 50, 0}), "no_margin"));

  // More histograms than axis pairs, each one bin reaching past both axis
  // domains.
  Case single;
  single.axes = {{"a", 0.0, 1.0}, {"b", 0.0, 1.0}};
  single.layout = PcLayout{64, 48, 4};
  single.style = faint_style();
  Histogram2D h;
  h.xbins = Bins({-1.0, 2.0});
  h.ybins = Bins({0.25, 0.75});
  h.counts = {5};
  single.hists = {h, h, h};
  CHECK(identical(single, "single_bin"));

  // Margins that fill the whole width: both axes on column 12, so no
  // column lies strictly between them and nothing is drawn.
  CHECK(identical(fixed_case(2, PcLayout{24, 100, 12}), "zero_width"));
  // Margins that fill the whole height: every value on row 12.
  CHECK(identical(fixed_case(3, PcLayout{100, 24, 12}), "zero_height"));
}

/// Margins wider than the canvas are rejected: the plot's usable extent
/// would be negative.
void test_layout_wider_than_canvas_is_rejected() {
  const std::vector<PcAxis> axes = {{"a", 0.0, 1.0}, {"b", 0.0, 1.0}};
  const auto rejects = [&](PcLayout layout) {
    try {
      render::ParallelCoordinatesPlot plot(axes, layout);
    } catch (const std::invalid_argument&) {
      return true;
    }
    return false;
  };
  CHECK(rejects(PcLayout{320, 20, 12}));
  CHECK(rejects(PcLayout{20, 180, 12}));
  CHECK(rejects(PcLayout{20, 20, 12}));
  CHECK(!rejects(PcLayout{24, 24, 12}));
}

/// The hybrid layer is the histogram layer plus polylines for records in
/// sparse bins; the reference rebuilds it from ref_histogram_layer and
/// Image::draw_line.
void test_hybrid_layer_is_byte_identical() {
  const Case c = fixed_case(4, PcLayout{240, 140, 12});
  std::mt19937_64 rng(99);
  std::uniform_real_distribution<double> u(-1.0, 11.0);
  std::vector<std::vector<double>> values(4, std::vector<double>(400));
  for (auto& column : values)
    for (double& v : column) v = u(rng);
  const std::vector<std::span<const double>> columns(values.begin(), values.end());
  const double fraction = 0.9;

  render::ParallelCoordinatesPlot plot(c.axes, c.layout);
  Image ref = plot.image();
  plot.draw_hybrid_layer(c.hists, columns, c.style, fraction);

  ref_histogram_layer(ref, c.axes, c.layout, c.hists, c.style);
  std::size_t lines = 0;
  for (std::size_t row = 0; row < values[0].size(); ++row) {
    for (std::size_t pair = 0; pair < c.hists.size(); ++pair) {
      const Histogram2D& h = c.hists[pair];
      double max_density = 0.0;
      for (std::size_t bx = 0; bx < h.nx(); ++bx)
        for (std::size_t by = 0; by < h.ny(); ++by)
          if (h.at(bx, by) != 0) max_density = std::max(max_density, h.density(bx, by));
      const std::ptrdiff_t bx = h.xbins.locate(values[pair][row]);
      const std::ptrdiff_t by = h.ybins.locate(values[pair + 1][row]);
      if (bx >= 0 && by >= 0 &&
          h.density(static_cast<std::size_t>(bx), static_cast<std::size_t>(by)) >=
              fraction * max_density)
        continue;
      ++lines;
      ref.draw_line(ref_axis_x(c.layout, 4, pair),
                    ref_value_y(c.layout, c.axes[pair], values[pair][row]),
                    ref_axis_x(c.layout, 4, pair + 1),
                    ref_value_y(c.layout, c.axes[pair + 1], values[pair + 1][row]),
                    c.style.color, c.style.max_alpha);
    }
  }
  CHECK(lines > 0);
  CHECK(ppm_bytes(plot.image(), out_dir() / "hybrid_new.ppm") ==
        ppm_bytes(ref, out_dir() / "hybrid_ref.ppm"));
}

}  // namespace

int main() {
  test_faint_corpus_is_byte_identical();
  test_general_corpus_is_byte_identical();
  test_edge_cases_are_byte_identical();
  test_layout_wider_than_canvas_is_rejected();
  test_hybrid_layer_is_byte_identical();
  return qdv::test::finish("test_render");
}
