// Minimal additive-blending RGB raster with PPM output — enough to
// reproduce the paper's figures without a graphics dependency.
#pragma once

#include <cstdint>
#include <filesystem>
#include <vector>

namespace qdv::render {

struct Color {
  float r = 0.0f;
  float g = 0.0f;
  float b = 0.0f;
};

namespace colors {
inline constexpr Color kBlack{0.0f, 0.0f, 0.0f};
inline constexpr Color kWhite{1.0f, 1.0f, 1.0f};
inline constexpr Color kGray{0.55f, 0.55f, 0.55f};
inline constexpr Color kRed{0.94f, 0.22f, 0.18f};
inline constexpr Color kGreen{0.16f, 0.85f, 0.30f};
inline constexpr Color kBlue{0.25f, 0.45f, 0.95f};
inline constexpr Color kYellow{0.95f, 0.85f, 0.20f};
inline constexpr Color kOrange{0.95f, 0.55f, 0.15f};
inline constexpr Color kCyan{0.20f, 0.80f, 0.85f};
inline constexpr Color kMagenta{0.85f, 0.30f, 0.85f};
}  // namespace colors

class Image {
 public:
  Image(std::size_t width, std::size_t height, Color background = colors::kBlack);

  std::size_t width() const { return width_; }
  std::size_t height() const { return height_; }

  /// Additive blend of @p color scaled by @p alpha (clamped at write time).
  void add(std::ptrdiff_t x, std::ptrdiff_t y, const Color& color, float alpha);

  /// Opaque write.
  void set(std::ptrdiff_t x, std::ptrdiff_t y, const Color& color);

  /// The r, g, b floats of pixel (x, y), unchecked: x < width, y < height.
  float* pixel(std::size_t x, std::size_t y) { return &rgb_[(y * width_ + x) * 3]; }

  /// Anti-aliasing-free line segment with additive blending.
  void draw_line(double x0, double y0, double x1, double y1, const Color& color,
                 float alpha);

  /// Binary PPM (P6) output; parent directories are created when missing.
  void write_ppm(const std::filesystem::path& path) const;

 private:
  std::size_t width_;
  std::size_t height_;
  std::vector<float> rgb_;  // 3 floats per pixel, row-major
};

/// Perceptual-ish blue->red pseudocolor map over t in [0, 1], used by the
/// physical-space scatter views.
Color pseudocolor(double t);

/// Distinct palette color for categorical series (temporal plots).
Color palette_color(std::size_t i);

}  // namespace qdv::render
