// Synthetic video sequences with scripted global (camera) motion.
//
// The paper evaluates on four MPEG-1 CIF sequences (Singapore, Dome, Pisa,
// Movie) that are not available.  What the experiment needs from them is
// (a) textured frames a global-motion estimator can lock on to and (b) a
// known camera path, so we render frames by sampling a deterministic
// procedural "world" through a similarity camera transform (pan, rotation,
// zoom, plus a small random-walk jitter that varies convergence behaviour
// frame to frame).  The scripted pose doubles as ground truth for tests.
#pragma once

#include <string>
#include <vector>

#include "image/image.hpp"

namespace ae::img {

/// Camera pose: frame coordinates map into world coordinates by
///   world = center + zoom * R(angle) * (frame - frame_center).
struct CameraPose {
  double center_x = 0.0;  ///< world position of the frame center
  double center_y = 0.0;
  double angle = 0.0;  ///< radians, counter-clockwise
  double zoom = 1.0;   ///< world units per frame pixel

  /// Maps a frame coordinate to world coordinates.
  void to_world(double fx, double fy, double frame_w, double frame_h,
                double& wx, double& wy) const;

  /// The same mapping with cos(angle) and sin(angle) supplied by the
  /// caller, so a per-pixel loop evaluates them once per frame.
  void to_world(double fx, double fy, double frame_w, double frame_h,
                double cos_angle, double sin_angle, double& wx,
                double& wy) const;
};

/// Per-frame motion increments applied to the camera pose.
struct MotionScript {
  double pan_x = 0.0;      ///< world units per frame
  double pan_y = 0.0;      ///< world units per frame
  double rotate = 0.0;     ///< radians per frame
  double zoom_rate = 1.0;  ///< multiplicative zoom per frame
  double jitter = 0.0;     ///< amplitude of the random-walk perturbation
};

class SyntheticSequence {
 public:
  struct Params {
    std::string name = "sequence";
    Size frame_size = formats::kCif;
    int frame_count = 30;
    u64 seed = 1;
    MotionScript script;
  };

  explicit SyntheticSequence(Params params);

  const Params& params() const { return params_; }
  const std::string& name() const { return params_.name; }
  int frame_count() const { return params_.frame_count; }
  Size frame_size() const { return params_.frame_size; }

  /// Ground-truth camera pose at frame t (0-based).
  CameraPose pose(int t) const;

  /// Renders frame t by sampling the procedural world through pose(t).
  Image frame(int t) const;

  /// World luma at continuous world coordinates (used by tests and mosaic
  /// ground-truth comparisons).
  double world_luma(double wx, double wy) const;

 private:
  Params params_;
  std::vector<CameraPose> poses_;  // precomputed, includes jitter
};

/// The four sequences of Table 3, as synthetic stand-ins.  Frame counts and
/// motion scripts are calibrated so the GME call counts land in the same
/// range as the paper (thousands of intra + inter calls per sequence).
enum class PaperSequence { Singapore, Dome, Pisa, Movie };

SyntheticSequence::Params paper_sequence_params(PaperSequence which);
std::vector<PaperSequence> all_paper_sequences();
std::string to_string(PaperSequence which);

}  // namespace ae::img
