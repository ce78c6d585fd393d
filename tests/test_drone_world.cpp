// Tests for the drone world geometry, raycaster and camera.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "envs/drone_camera.h"
#include "envs/drone_world.h"
#include "util/binary_io.h"

namespace ftnav {
namespace {

constexpr double kPi = 3.14159265358979323846;

DroneWorld empty_room() {
  return DroneWorld(10.0, 10.0, {}, Pose2D{5.0, 5.0, 0.0}, "empty");
}

TEST(DroneWorld, RejectsBadConstruction) {
  EXPECT_THROW(DroneWorld(0.0, 10.0, {}, Pose2D{}, "x"),
               std::invalid_argument);
  EXPECT_THROW(DroneWorld(10.0, 10.0, {Box{3, 3, 2, 4}}, Pose2D{1, 1, 0}, "x"),
               std::invalid_argument);  // degenerate box
  EXPECT_THROW(
      DroneWorld(10.0, 10.0, {Box{4, 4, 6, 6}}, Pose2D{5, 5, 0}, "x"),
      std::invalid_argument);  // start inside obstacle
}

TEST(DroneWorld, RaycastHitsBoundary) {
  const DroneWorld world = empty_room();
  EXPECT_NEAR(world.raycast(5.0, 5.0, 0.0, 100.0), 5.0, 1e-9);
  EXPECT_NEAR(world.raycast(5.0, 5.0, kPi, 100.0), 5.0, 1e-9);
  EXPECT_NEAR(world.raycast(5.0, 5.0, kPi / 2.0, 100.0), 5.0, 1e-9);
  EXPECT_NEAR(world.raycast(5.0, 5.0, -kPi / 2.0, 100.0), 5.0, 1e-9);
}

TEST(DroneWorld, RaycastCapsAtMaxRange) {
  const DroneWorld world = empty_room();
  EXPECT_DOUBLE_EQ(world.raycast(5.0, 5.0, 0.0, 2.0), 2.0);
}

TEST(DroneWorld, RaycastHitsObstacle) {
  DroneWorld world(20.0, 10.0, {Box{8.0, 4.0, 9.0, 6.0}},
                   Pose2D{2.0, 5.0, 0.0}, "one-box");
  EXPECT_NEAR(world.raycast(2.0, 5.0, 0.0, 100.0), 6.0, 1e-9);
  // Ray pointing away from the box hits the boundary instead.
  EXPECT_NEAR(world.raycast(2.0, 5.0, kPi, 100.0), 2.0, 1e-9);
}

TEST(DroneWorld, RaycastDiagonal) {
  const DroneWorld world = empty_room();
  const double d = world.raycast(5.0, 5.0, kPi / 4.0, 100.0);
  EXPECT_NEAR(d, 5.0 * std::sqrt(2.0), 1e-9);
}

TEST(DroneWorld, RaycastFromInsideObstacleIsZero) {
  DroneWorld world(20.0, 10.0, {Box{8.0, 4.0, 9.0, 6.0}},
                   Pose2D{2.0, 5.0, 0.0}, "one-box");
  EXPECT_DOUBLE_EQ(world.raycast(8.5, 5.0, 0.0, 100.0), 0.0);
}

TEST(DroneWorld, CollisionWithWallsAndBoxes) {
  DroneWorld world(20.0, 10.0, {Box{8.0, 4.0, 9.0, 6.0}},
                   Pose2D{2.0, 5.0, 0.0}, "one-box");
  EXPECT_TRUE(world.collides(0.1, 5.0, 0.3));    // left wall
  EXPECT_TRUE(world.collides(8.5, 5.0, 0.3));    // inside the box
  EXPECT_TRUE(world.collides(7.8, 5.0, 0.3));    // within radius of box
  EXPECT_FALSE(world.collides(5.0, 5.0, 0.3));   // open space
  EXPECT_FALSE(world.collides(7.5, 5.0, 0.1));   // thin drone squeezes by
}

TEST(DroneWorld, PresetLayoutsAreUsable) {
  for (const DroneWorld& world :
       {DroneWorld::indoor_long(), DroneWorld::indoor_vanleer()}) {
    EXPECT_FALSE(world.obstacles().empty());
    EXPECT_FALSE(
        world.collides(world.start_pose().x, world.start_pose().y, 0.3));
    // Some forward clearance from the start.
    EXPECT_GT(world.raycast(world.start_pose().x, world.start_pose().y,
                            world.start_pose().heading, 10.0),
              1.0);
  }
  EXPECT_EQ(DroneWorld::indoor_long().name(), "indoor-long");
  EXPECT_EQ(DroneWorld::indoor_vanleer().name(), "indoor-vanleer");
}

TEST(DroneWorld, RenderMarksObstaclesAndStart) {
  const std::string art = DroneWorld::indoor_long().render();
  EXPECT_NE(art.find('#'), std::string::npos);
  EXPECT_NE(art.find('S'), std::string::npos);
}

// ------------------------------------------------------------- camera

TEST(Camera, DepthProfileMatchesGeometry) {
  DroneWorld world(20.0, 10.0, {Box{8.0, 4.0, 9.0, 6.0}},
                   Pose2D{2.0, 5.0, 0.0}, "one-box");
  CameraConfig config;
  config.image_hw = 21;
  const auto depths = depth_profile(world, world.start_pose(), config);
  ASSERT_EQ(depths.size(), 21u);
  // Center column looks straight ahead at the box face 6 m away.
  EXPECT_NEAR(depths[10], 6.0, 1e-9);
}

TEST(Camera, ImageShapeAndRange) {
  const DroneWorld world = DroneWorld::indoor_long();
  CameraConfig config;
  config.image_hw = 39;
  const Tensor image = render_camera(world, world.start_pose(), config);
  EXPECT_EQ(image.shape(), (Shape{3, 39, 39}));
  for (std::size_t i = 0; i < image.size(); ++i) {
    EXPECT_GE(image[i], 0.0f);
    EXPECT_LE(image[i], 1.0f);
  }
}

TEST(Camera, CloserObstacleBrightensWallBand) {
  DroneWorld world(40.0, 10.0, {Box{20.0, 0.0, 21.0, 10.0}},
                   Pose2D{2.0, 5.0, 0.0}, "wall");
  CameraConfig config;
  config.image_hw = 21;
  const Tensor far_view = render_camera(world, Pose2D{2.0, 5.0, 0.0}, config);
  const Tensor near_view =
      render_camera(world, Pose2D{15.0, 5.0, 0.0}, config);
  const int mid = config.image_hw / 2;
  EXPECT_GT(near_view.get(0, mid, mid), far_view.get(0, mid, mid));
}

TEST(Camera, RejectsTinyImage) {
  const DroneWorld world = empty_room();
  CameraConfig config;
  config.image_hw = 1;
  EXPECT_THROW(depth_profile(world, world.start_pose(), config),
               std::invalid_argument);
}

TEST(Camera, ImageIsDeterministic) {
  const DroneWorld world = DroneWorld::indoor_vanleer();
  CameraConfig config;
  config.image_hw = 15;
  const Tensor a = render_camera(world, world.start_pose(), config);
  const Tensor b = render_camera(world, world.start_pose(), config);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

// Pins the exact float bytes render_camera produces: FNV-1a over the
// rendered images of a fixed pose set, per world and image size. The
// poses cover a camera inside an obstacle (every depth 0, clamped to
// 0.05), one facing a domain wall from 0.2 m, headings on both sides
// of +-pi, and the start pose. Any change to the shading arithmetic,
// its evaluation order or the pixel layout changes a digest.
TEST(Camera, RenderedBytesArePinned) {
  struct Case {
    const char* world;
    int image_hw;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {"indoor-long", 39, 0x6efaff9ac1765974ULL},
      {"indoor-long", 103, 0x4241199c30683ffbULL},
      {"indoor-vanleer", 39, 0x170feaaab80d4ba6ULL},
      {"indoor-vanleer", 103, 0xf9763f45be9ed405ULL},
      {"random-clutter", 39, 0xe9002052eb372e48ULL},
      {"random-clutter", 103, 0x03be30ecd2827eefULL},
  };
  const auto make_world = [](const std::string& name) {
    if (name == "indoor-long") return DroneWorld::indoor_long();
    if (name == "indoor-vanleer") return DroneWorld::indoor_vanleer();
    return DroneWorld::random_clutter(24.0, 18.0, 9, 4242);
  };
  for (const Case& c : cases) {
    const DroneWorld world = make_world(c.world);
    ASSERT_FALSE(world.obstacles().empty());
    const Box& box = world.obstacles().front();
    const Pose2D start = world.start_pose();
    const std::vector<Pose2D> poses = {
        start,
        {(box.x_min + box.x_max) / 2, (box.y_min + box.y_max) / 2, 0.3},
        {0.2, world.height() - 1.0, kPi - 1e-9},
        {world.width() - 0.2, 1.0, 0.0},
        {start.x, start.y, kPi},
        {start.x, start.y, -kPi + 1e-6},
        {start.x, start.y, -kPi},
    };
    CameraConfig config;
    config.image_hw = c.image_hw;
    std::string bytes;
    for (const Pose2D& pose : poses) {
      const Tensor image = render_camera(world, pose, config);
      bytes.append(reinterpret_cast<const char*>(image.data()),
                   image.size() * sizeof(float));
    }
    const std::uint64_t digest = io::fnv1a({bytes.data(), bytes.size()});
    char hex[32];
    std::snprintf(hex, sizeof(hex), "0x%016llxULL",
                  static_cast<unsigned long long>(digest));
    EXPECT_EQ(digest, c.digest)
        << c.world << " image_hw=" << c.image_hw << ": got " << hex;
  }
}

}  // namespace
}  // namespace ftnav
