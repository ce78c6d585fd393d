#include "envs/drone_camera.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace ftnav {
namespace {
constexpr double kPi = 3.14159265358979323846;
}

std::vector<double> depth_profile(const DroneWorld& world, const Pose2D& pose,
                                  const CameraConfig& config) {
  if (config.image_hw < 2)
    throw std::invalid_argument("depth_profile: image too small");
  const double fov = config.fov_deg * kPi / 180.0;
  std::vector<double> depths(static_cast<std::size_t>(config.image_hw));
  for (int col = 0; col < config.image_hw; ++col) {
    // Leftmost column looks left of heading (image x grows rightward,
    // world angle grows CCW).
    const double frac =
        static_cast<double>(col) / static_cast<double>(config.image_hw - 1);
    const double angle = pose.heading + fov * (0.5 - frac);
    depths[static_cast<std::size_t>(col)] =
        world.raycast(pose.x, pose.y, angle, config.max_range);
  }
  return depths;
}

Tensor render_camera(const DroneWorld& world, const Pose2D& pose,
                     const CameraConfig& config) {
  const std::vector<double> depths = depth_profile(world, pose, config);
  const int hw = config.image_hw;
  const auto n = static_cast<std::size_t>(hw);
  Tensor image(Shape{3, hw, hw});
  const double vfov = config.fov_deg * kPi / 180.0;  // square pixels

  // Row table: everything that depends only on the pixel's elevation
  // phi. Each entry keeps the exact double expression the per-pixel
  // shading used, so the bytes do not depend on the hoisting.
  struct RowShade {
    double abs_phi;     // |phi|, compared against the column's wall angle
    double wall_green;  // the elevation term of a wall pixel's green
    float r, g, b;      // floor (phi < 0) or ceiling colour of the row
  };
  std::vector<RowShade> rows(n);
  for (int row = 0; row < hw; ++row) {
    const double frac =
        static_cast<double>(row) / static_cast<double>(hw - 1);
    const double phi = vfov * (0.5 - frac);  // +up, -down
    RowShade& shade_row = rows[static_cast<std::size_t>(row)];
    shade_row.abs_phi = std::abs(phi);
    shade_row.wall_green = 0.2 * (1.0 - std::abs(phi) / (vfov * 0.5));
    double r, g, b;
    if (phi < 0.0) {
      // Floor pixel: implied ground distance at this declination.
      const double floor_d =
          std::min(config.camera_height / std::tan(-phi), config.max_range);
      const double shade =
          0.5 * std::clamp(1.0 - floor_d / config.max_range, 0.0, 1.0);
      r = shade;
      g = 0.6 * shade;
      b = 0.3 + 0.4 * shade;
    } else {
      // Ceiling pixel: constant-height ceiling shading.
      const double ceil_d =
          std::min(config.camera_height / std::tan(phi), config.max_range);
      const double shade =
          0.35 * std::clamp(1.0 - ceil_d / config.max_range, 0.0, 1.0);
      r = 0.2 + shade;
      g = 0.2 + shade;
      b = 0.25 + shade;
    }
    shade_row.r = static_cast<float>(r);
    shade_row.g = static_cast<float>(g);
    shade_row.b = static_cast<float>(b);
  }

  // Column table: the wall band's angular half-extent and shade at the
  // column's depth.
  struct ColumnShade {
    double wall_angle;  // vertical half-extent of the wall band
    double wall_green;  // the depth term of a wall pixel's green
    float r, b;         // wall red and blue
  };
  std::vector<ColumnShade> cols(n);
  for (std::size_t col = 0; col < n; ++col) {
    const double d = std::max(depths[col], 0.05);
    const double wall_shade =
        std::clamp(1.0 - d / config.max_range, 0.0, 1.0);
    // Wall pixels: brightness encodes proximity.
    cols[col] = ColumnShade{std::atan2(config.wall_half_height, d),
                            0.8 * wall_shade, static_cast<float>(wall_shade),
                            static_cast<float>(1.0 - wall_shade)};
  }

  // Per pixel only the wall test and a select remain; rows are written
  // contiguously in every channel plane.
  float* red = image.data();
  float* green = red + n * n;
  float* blue = green + n * n;
  for (std::size_t row = 0; row < n; ++row) {
    const RowShade& shade_row = rows[row];
    for (std::size_t col = 0; col < n; ++col, ++red, ++green, ++blue) {
      const ColumnShade& column = cols[col];
      if (shade_row.abs_phi <= column.wall_angle) {
        *red = column.r;
        *green = static_cast<float>(column.wall_green + shade_row.wall_green);
        *blue = column.b;
      } else {
        *red = shade_row.r;
        *green = shade_row.g;
        *blue = shade_row.b;
      }
    }
  }
  return image;
}

}  // namespace ftnav
