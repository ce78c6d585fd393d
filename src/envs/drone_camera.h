#pragma once
// Synthetic monocular camera for the drone world.
//
// PEDRA feeds the policy an Unreal-rendered RGB frame; the fault study
// only needs a state image whose pixels encode obstacle geometry and
// flow through the same quantized input buffer. The camera raycasts one
// depth sample per image column and expands it into a 3-channel
// pseudo-RGB image with a simple wall / floor / ceiling shading model,
// so nearby obstacles produce bright, wide wall bands exactly where a
// rendered frame would.

#include "envs/drone_world.h"
#include "nn/tensor.h"

namespace ftnav {

struct CameraConfig {
  int image_hw = 39;          ///< square output image (paper preset: 103)
  double fov_deg = 90.0;      ///< horizontal field of view
  double max_range = 10.0;    ///< depth saturation distance (m)
  double wall_half_height = 1.5;  ///< apparent obstacle half-height (m)
  double camera_height = 1.0;     ///< eye height above the floor (m)
};

/// Renders the view from `pose` into a CHW tensor with values in [0, 1].
///
/// A pixel's shade depends on its row only through the elevation phi
/// and on its column only through that column's depth, so the render
/// builds two tables per call: per row |phi|, the wall green term
/// 0.2 * (1 - |phi| / (vfov / 2)) and the floor (phi < 0) or ceiling
/// colour; per column the wall band's half-angle atan2(h, d) and the
/// wall colour. A pixel is then one compare (|phi| <= half-angle: wall)
/// and a select, written row by row. The tables hold the same double
/// expressions the per-pixel shading evaluated, so the output bytes
/// equal those of a direct per-pixel evaluation
/// (tests/test_drone_world.cpp pins them).
Tensor render_camera(const DroneWorld& world, const Pose2D& pose,
                     const CameraConfig& config);

/// Per-column depth profile (used by tests and the expert policy).
std::vector<double> depth_profile(const DroneWorld& world, const Pose2D& pose,
                                  const CameraConfig& config);

}  // namespace ftnav
