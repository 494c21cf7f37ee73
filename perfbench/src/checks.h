// Correctness checks the benchmark applies to every served frame.
//
// Each check compares the program's outputs against a property the method
// must have, or against a value the benchmark computes itself (its own
// Eq. 3 inversion, IoU and AP code), never against the program's own helper
// for the same thing.  A check returns an empty string when it passes and a
// one-line reason when it fails; perfbench_checks_test feeds each one a
// deliberately corrupted output.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "adascale/pipeline.h"
#include "adascale/scale_set.h"
#include "data/scene.h"
#include "eval/map_evaluator.h"

namespace perfbench {

using ada::ScaleSet;

/// Frames each stream returned, against the benchmark's own schedule:
/// passes when stream s returned exactly expected[s] frames.
std::string check_accounting(const std::vector<long>& served,
                             const std::vector<long>& expected);

/// What the checks and the mAP need of one served frame: its scales and
/// flags, its detections (processed-image coordinates), and optionally a
/// digest of every output byte.  Summaries are small enough to keep for
/// every frame of a run without inflating the serving process's memory.
struct FrameSummary {
  int scale_used = 0, next_scale = 0;
  float regressed_t = 0.0f;
  bool dff = false, dff_key = false;
  int image_h = 0, image_w = 0;
  std::vector<ada::EvalDetection> dets;
  std::uint64_t digest = 0;  ///< of output_bytes(); 0 when not requested
};

FrameSummary summarize(const ada::AdaFrameOutput& out, bool with_digest);

/// The benchmark's own inversion of Eq. 3: scale the current scale by the
/// decoded relative scale, round, clip to [min, max] of `sreg`, and snap to
/// the nearest member (ties to the larger).  `alt` receives the result of
/// rounding the other way when the unrounded scale sits within float noise
/// of a .5 tie, else the same value.
int eq3_next_scale(float t, int scale, const ScaleSet& sreg, int* alt);

/// next_scale must equal the own Eq. 3 inversion of (regressed_t,
/// scale_used), and scale_used must be in `sreg`.  On DFF frames only key
/// frames decode a new scale; warp frames are checked for membership only.
std::string check_decode(const FrameSummary& f, const ScaleSet& sreg);

/// Boxes inside the processed image, scores in [0.05, 1] and
/// non-increasing, at most 300 detections, class ids in [0, num_classes).
std::string check_detection_shape(const FrameSummary& f, int num_classes);

/// The benchmark's own intersection-over-union.
double own_iou(const ada::Box& a, const ada::Box& b);

/// No two same-class detections overlap at IoU > 0.3.
std::string check_nms(const FrameSummary& f);

/// One stream's frames in the order the program returned them, with the
/// snippet-start flags of the schedule: every snippet starts at
/// `init_scale`, and within a snippet each frame runs at the scale the
/// frame before it chose (Algorithm 1's chain).  On DFF only a warp frame
/// is bound to its predecessor: it keeps the key's scale and the pending
/// next scale.  A dropped, repeated or reordered frame breaks the chain
/// unless the frames it swaps chose the same scales.
std::string check_scale_chain(const std::vector<FrameSummary>& frames,
                              const std::vector<bool>& snippet_start,
                              int init_scale);

/// One stream's frames in serving order, with the snippet-start flags of
/// the schedule: every snippet starts on a key frame and no run of warp
/// frames is longer than `max_interval`.
std::string check_dff(const std::vector<FrameSummary>& frames,
                      const std::vector<bool>& snippet_start,
                      int max_interval);

/// Every output field that must be bit-identical between two servings of
/// the same frame, as bytes (detections, their probabilities, deltas and
/// anchors, image size, scales, regressed t and the key-frame flag).
std::vector<std::uint8_t> output_bytes(const ada::AdaFrameOutput& out);

/// 64-bit FNV-1a digest of a byte string.
std::uint64_t digest(const std::vector<std::uint8_t>& bytes);

/// Frame-by-frame digest comparison of a concurrent run against its serial
/// replay.
std::string check_replay(const std::vector<std::uint64_t>& served,
                         const std::vector<std::uint64_t>& replay);

/// One evaluated frame: ground truth and detections in the reference frame.
struct EvalFrame {
  std::vector<ada::GtBox> gts;
  std::vector<ada::EvalDetection> dets;
};

/// The benchmark's own VOC all-point AP@0.5, averaged over the classes
/// with ground truth, in percent.
double own_map_percent(const std::vector<EvalFrame>& frames, int num_classes);

/// The program's mAP (percent) must agree with the own AP code within
/// `tolerance_points` percentage points.
std::string check_map(double program_map_percent, double own_map_percent,
                      double tolerance_points = 0.05);

}  // namespace perfbench
