#include "render/pc_plot.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

namespace qdv::render {

namespace {
constexpr Color kFrameColor{0.35f, 0.35f, 0.38f};

// std::lround(y) for -0.5 < y < 2^31, as one add and a truncation. Adding
// 0.5 itself would round 0.49999999999999994 + 0.5 up to 1; adding the
// largest double below 0.5 keeps every y below a half-integer n + 0.5
// below n + 1, and carries y = n - 0.5 to n (n - 2^-54 rounds to n; for
// n = 1 it ties to the even 1). For -0.5 < y < 0.5 the sum lies in
// (-2^-54, 1) and truncates to 0. Quad rows lie in that range: the bin
// edges drawn are in [0, height], and a row interpolates two of them with
// t in [0, 1], which rounding can carry only a few ulps outside.
constexpr double kBelowHalf = 0.5 - 0x1p-54;

std::int32_t round_row(double y) {
  return static_cast<std::int32_t>(y + kBelowHalf);
}
}  // namespace

ParallelCoordinatesPlot::ParallelCoordinatesPlot(std::vector<PcAxis> axes,
                                                 PcLayout layout)
    : axes_(std::move(axes)),
      layout_(layout),
      image_(layout_.width, layout_.height) {
  if (axes_.size() < 2)
    throw std::invalid_argument("ParallelCoordinatesPlot: need at least 2 axes");
  if (2 * layout_.margin > layout_.width || 2 * layout_.margin > layout_.height)
    throw std::invalid_argument("ParallelCoordinatesPlot: margins exceed the canvas");
}

double ParallelCoordinatesPlot::axis_x(std::size_t axis) const {
  const double usable =
      static_cast<double>(layout_.width - 2 * layout_.margin);
  return static_cast<double>(layout_.margin) +
         usable * static_cast<double>(axis) /
             static_cast<double>(axes_.size() - 1);
}

double ParallelCoordinatesPlot::value_y(std::size_t axis, double value) const {
  const PcAxis& a = axes_[axis];
  const double span = a.hi > a.lo ? a.hi - a.lo : 1.0;
  const double t = std::clamp((value - a.lo) / span, 0.0, 1.0);
  const double usable =
      static_cast<double>(layout_.height - 2 * layout_.margin);
  return static_cast<double>(layout_.height - layout_.margin) - t * usable;
}

void ParallelCoordinatesPlot::draw_frame() {
  const auto top = static_cast<std::ptrdiff_t>(layout_.margin);
  const auto bottom = static_cast<std::ptrdiff_t>(layout_.height - layout_.margin);
  for (std::size_t a = 0; a < axes_.size(); ++a) {
    const auto x = static_cast<std::ptrdiff_t>(std::lround(axis_x(a)));
    for (std::ptrdiff_t y = top; y <= bottom; ++y) image_.set(x, y, kFrameColor);
  }
}

void ParallelCoordinatesPlot::draw_histogram_layer(
    const std::vector<Histogram2D>& hists, const PcStyle& style) {
  // Each non-empty bin is a quad between its value range on the left axis
  // and on the right axis; at pixel column px it covers the rows
  // [ylo, yhi]. Columns are drawn a tile at a time: the tile is copied out
  // of the row-major image into one contiguous buffer per column, every
  // quad adds its colour to its span in bin order, and the tile is copied
  // back. Each pixel so receives the same float adds, in the same order, as
  // per-pixel Image::add calls would give it (DESIGN.md §17).
  constexpr std::ptrdiff_t kTile = 8;  // columns per tile
  const std::size_t npairs = std::min(hists.size(), axes_.size() - 1);
  const auto width = static_cast<std::ptrdiff_t>(image_.width());
  const auto height = static_cast<std::int32_t>(image_.height());
  const auto rows = static_cast<std::size_t>(height);
  // One pixel, or one quad's colour times its intensity, padded to four
  // floats so that adding a quad to a pixel is one vector add.
  struct Rgbx {
    float v[4];
  };
  // The non-empty bins as structure of arrays, so the per-column span
  // computation vectorises: the y of the bin's two edges on the left axis,
  // their slopes towards the right axis per unit t, and the paint.
  std::vector<double> la, lb, sa, sb;
  std::vector<Rgbx> paint;
  std::vector<std::int32_t> ylo, yhi;
  std::vector<double> ly, ry;
  std::vector<Rgbx> tile(static_cast<std::size_t>(kTile) * rows);
  for (std::size_t pair = 0; pair < npairs; ++pair) {
    const Histogram2D& h = hists[pair];
    const std::uint64_t maxc = h.max_count();
    if (maxc == 0) continue;
    const double xl = axis_x(pair);
    const double xr = axis_x(pair + 1);
    // Axes on one column (width == 2 * margin) leave no t to interpolate.
    if (!(xr > xl)) continue;
    const auto px0 = std::max<std::ptrdiff_t>(
        static_cast<std::ptrdiff_t>(std::ceil(xl)), 0);
    const auto px1 = std::min<std::ptrdiff_t>(
        static_cast<std::ptrdiff_t>(std::floor(xr)), width - 1);
    if (px0 > px1) continue;

    ly.resize(h.nx() + 1);
    ry.resize(h.ny() + 1);
    for (std::size_t i = 0; i <= h.nx(); ++i)
      ly[i] = value_y(pair, h.xbins.edges()[i]);
    for (std::size_t j = 0; j <= h.ny(); ++j)
      ry[j] = value_y(pair + 1, h.ybins.edges()[j]);
    const auto on_canvas = [height](double y) {
      return y >= 0.0 && y <= static_cast<double>(height);
    };
    la.clear();
    lb.clear();
    sa.clear();
    sb.clear();
    paint.clear();
    for (std::size_t bx = 0; bx < h.nx(); ++bx) {
      for (std::size_t by = 0; by < h.ny(); ++by) {
        const std::uint64_t c = h.at(bx, by);
        if (c == 0) continue;
        // value_y maps every finite value into [margin, height - margin];
        // only a NaN edge fails this, and such a bin has no rows.
        if (!on_canvas(ly[bx]) || !on_canvas(ly[bx + 1]) || !on_canvas(ry[by]) ||
            !on_canvas(ry[by + 1]))
          continue;
        const double r = static_cast<double>(c) / static_cast<double>(maxc);
        // pow(r, 1.0) == r exactly, so the common case skips the call.
        const double shaped = style.gamma == 1.0 ? r : std::pow(r, style.gamma);
        const float intensity = style.max_alpha * static_cast<float>(shaped);
        la.push_back(ly[bx]);
        lb.push_back(ly[bx + 1]);
        sa.push_back(ry[by] - ly[bx]);
        sb.push_back(ry[by + 1] - ly[bx + 1]);
        // The products Image::add forms for this quad.
        paint.push_back({{style.color.r * intensity, style.color.g * intensity,
                          style.color.b * intensity, 0.0f}});
      }
    }
    const std::size_t n = paint.size();
    ylo.resize(n);
    yhi.resize(n);

    for (std::ptrdiff_t tx = px0; tx <= px1; tx += kTile) {
      const std::ptrdiff_t tw = std::min(kTile, px1 - tx + 1);
      const auto x0 = static_cast<std::size_t>(tx);
      // A tile row is tw adjacent pixels of one image row.
      for (std::size_t y = 0; y < rows; ++y) {
        const float* p = image_.pixel(x0, y);
        for (std::ptrdiff_t c = 0; c < tw; ++c, p += 3)
          tile[static_cast<std::size_t>(c) * rows + y] = {{p[0], p[1], p[2], 0.0f}};
      }
      for (std::ptrdiff_t c = 0; c < tw; ++c) {
        // px0 >= xl and px1 <= xr, so t lies in [0, 1] and every row below
        // interpolates two values in [0, height]: round_row's range.
        const double t = (static_cast<double>(tx + c) - xl) / (xr - xl);
        for (std::size_t k = 0; k < n; ++k) {
          const double ya = la[k] + sa[k] * t;
          const double yb = lb[k] + sb[k] * t;
          ylo[k] = std::max(round_row(std::min(ya, yb)), 0);
          yhi[k] = std::min(round_row(std::max(ya, yb)), height - 1);
        }
        Rgbx* column = &tile[static_cast<std::size_t>(c) * rows];
        for (std::size_t k = 0; k < n; ++k) {
          const Rgbx add = paint[k];
          for (std::int32_t y = ylo[k]; y <= yhi[k]; ++y) {
            Rgbx& q = column[y];
            q.v[0] += add.v[0];
            q.v[1] += add.v[1];
            q.v[2] += add.v[2];
            q.v[3] += add.v[3];
          }
        }
      }
      for (std::size_t y = 0; y < rows; ++y) {
        float* p = image_.pixel(x0, y);
        for (std::ptrdiff_t c = 0; c < tw; ++c, p += 3) {
          const Rgbx& q = tile[static_cast<std::size_t>(c) * rows + y];
          p[0] = q.v[0];
          p[1] = q.v[1];
          p[2] = q.v[2];
        }
      }
    }
  }
}

void ParallelCoordinatesPlot::draw_polyline_layer(
    const std::vector<std::span<const double>>& columns, const PcStyle& style) {
  const std::size_t npairs = std::min(columns.size(), axes_.size()) - 1;
  if (columns.empty()) return;
  const std::size_t rows = columns.front().size();
  for (std::size_t row = 0; row < rows; ++row) {
    for (std::size_t pair = 0; pair < npairs; ++pair) {
      image_.draw_line(axis_x(pair), value_y(pair, columns[pair][row]),
                       axis_x(pair + 1), value_y(pair + 1, columns[pair + 1][row]),
                       style.color, style.max_alpha);
    }
  }
}

void ParallelCoordinatesPlot::draw_hybrid_layer(
    const std::vector<Histogram2D>& hists,
    const std::vector<std::span<const double>>& columns, const PcStyle& style,
    double outlier_fraction) {
  draw_histogram_layer(hists, style);
  if (columns.empty()) return;
  const std::size_t npairs =
      std::min({hists.size(), columns.size() - 1, axes_.size() - 1});
  // Per-pair density cutoffs below which a bin's records render as lines.
  std::vector<double> cutoff(npairs, 0.0);
  for (std::size_t pair = 0; pair < npairs; ++pair) {
    const Histogram2D& h = hists[pair];
    double max_density = 0.0;
    for (std::size_t bx = 0; bx < h.nx(); ++bx)
      for (std::size_t by = 0; by < h.ny(); ++by)
        if (h.at(bx, by) != 0)
          max_density = std::max(max_density, h.density(bx, by));
    cutoff[pair] = outlier_fraction * max_density;
  }
  // Cached locators hoist the per-row bin search out of the hot loop.
  std::vector<Bins::Locator> xloc;
  std::vector<Bins::Locator> yloc;
  xloc.reserve(npairs);
  yloc.reserve(npairs);
  for (std::size_t pair = 0; pair < npairs; ++pair) {
    xloc.push_back(hists[pair].xbins.locator());
    yloc.push_back(hists[pair].ybins.locator());
  }
  const std::size_t rows = columns.front().size();
  for (std::size_t row = 0; row < rows; ++row) {
    for (std::size_t pair = 0; pair < npairs; ++pair) {
      const Histogram2D& h = hists[pair];
      const std::ptrdiff_t bx = xloc[pair](columns[pair][row]);
      const std::ptrdiff_t by = yloc[pair](columns[pair + 1][row]);
      const bool sparse =
          bx < 0 || by < 0 ||
          h.density(static_cast<std::size_t>(bx), static_cast<std::size_t>(by)) <
              cutoff[pair];
      if (!sparse) continue;
      image_.draw_line(axis_x(pair), value_y(pair, columns[pair][row]),
                       axis_x(pair + 1), value_y(pair + 1, columns[pair + 1][row]),
                       style.color, style.max_alpha);
    }
  }
}

}  // namespace qdv::render
