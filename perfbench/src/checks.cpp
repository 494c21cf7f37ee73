#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

namespace perfbench {

namespace {

constexpr float kScoreFloor = 0.05f;  // detector score threshold
constexpr int kMaxDetections = 300;   // paper Sec. 4.2 top-K
constexpr double kNmsIou = 0.3;       // paper Sec. 4.2 NMS threshold

std::string where(const char* what, long a, long b = -1) {
  std::ostringstream os;
  os << what << " " << a;
  if (b >= 0) os << " / " << b;
  return os.str();
}

int snap(int s, const ScaleSet& sreg) {
  int best = sreg.scales.front();
  for (int m : sreg.scales) {
    const int d = std::abs(m - s), bd = std::abs(best - s);
    if (d < bd || (d == bd && m > best)) best = m;
  }
  return best;
}

template <typename T>
void put(std::vector<std::uint8_t>* out, const T& v) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
  out->insert(out->end(), p, p + sizeof(T));
}

void put_box(std::vector<std::uint8_t>* out, const ada::Box& b) {
  put(out, b.x1);
  put(out, b.y1);
  put(out, b.x2);
  put(out, b.y2);
}

}  // namespace

std::string check_accounting(const std::vector<long>& served,
                             const std::vector<long>& expected) {
  if (served.size() != expected.size())
    return where("accounting: streams served/offered",
                 static_cast<long>(served.size()),
                 static_cast<long>(expected.size()));
  for (std::size_t s = 0; s < served.size(); ++s)
    if (served[s] != expected[s])
      return "accounting: stream " + std::to_string(s) + " returned " +
             std::to_string(served[s]) + " of " +
             std::to_string(expected[s]) + " frames";
  return "";
}

std::string check_scale_chain(const std::vector<FrameSummary>& frames,
                              const std::vector<bool>& snippet_start,
                              int init_scale) {
  if (frames.size() != snippet_start.size())
    return "chain: frame and schedule lengths differ";
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const FrameSummary& f = frames[i];
    const long at = static_cast<long>(i);
    if (snippet_start[i]) {
      if (f.scale_used != init_scale)
        return where("chain: snippet does not start at the initial scale at",
                     at);
      continue;
    }
    const FrameSummary& prev = frames[i - 1];
    if (f.dff && !f.dff_key) {
      if (f.scale_used != prev.scale_used || f.next_scale != prev.next_scale)
        return where("chain: warp frame leaves the key's scales at", at);
    } else if (!f.dff && f.scale_used != prev.next_scale) {
      return where("chain: frame does not run at the scale chosen before it at",
                   at);
    }
  }
  return "";
}

int eq3_next_scale(float t, int scale, const ScaleSet& sreg, int* alt) {
  const double lo = static_cast<double>(sreg.min());
  const double hi = static_cast<double>(sreg.max());
  const double ratio =
      lo / hi + 0.5 * (static_cast<double>(t) + 1.0) * (hi / lo - lo / hi);
  const double raw = ratio * static_cast<double>(scale);
  const double down = std::floor(raw);
  const int nearest = static_cast<int>(raw - down >= 0.5 ? down + 1 : down);
  int other = nearest;
  if (std::abs(raw - down - 0.5) < 1e-3)
    other = raw - down >= 0.5 ? static_cast<int>(down)
                              : static_cast<int>(down + 1);
  auto finish = [&](int r) {
    return snap(std::clamp(r, sreg.min(), sreg.max()), sreg);
  };
  if (alt != nullptr) *alt = finish(other);
  return finish(nearest);
}

FrameSummary summarize(const ada::AdaFrameOutput& out, bool with_digest) {
  FrameSummary f;
  f.scale_used = out.scale_used;
  f.next_scale = out.next_scale;
  f.regressed_t = out.regressed_t;
  f.dff = out.dff;
  f.dff_key = out.dff_key;
  f.image_h = out.detections.image_h;
  f.image_w = out.detections.image_w;
  f.dets.reserve(out.detections.detections.size());
  for (const ada::Detection& d : out.detections.detections) {
    ada::EvalDetection e;
    e.box = d.box;
    e.class_id = d.class_id;
    e.score = d.score;
    f.dets.push_back(e);
  }
  if (with_digest) f.digest = digest(output_bytes(out));
  return f;
}

std::string check_decode(const FrameSummary& out, const ScaleSet& sreg) {
  if (!sreg.contains(out.scale_used))
    return where("decode: scale_used not in S_reg", out.scale_used);
  if (!sreg.contains(out.next_scale))
    return where("decode: next_scale not in S_reg", out.next_scale);
  if (out.dff && !out.dff_key) return "";
  int alt = 0;
  const int want = eq3_next_scale(out.regressed_t, out.scale_used, sreg, &alt);
  if (out.next_scale != want && out.next_scale != alt)
    return "decode: next_scale " + std::to_string(out.next_scale) +
           " but Eq. 3 gives " + std::to_string(want) + " (t=" +
           std::to_string(out.regressed_t) + ", scale " +
           std::to_string(out.scale_used) + ")";
  return "";
}

std::string check_detection_shape(const FrameSummary& out, int num_classes) {
  if (out.image_h <= 0 || out.image_w <= 0)
    return where("shape: image size", out.image_h, out.image_w);
  if (static_cast<int>(out.dets.size()) > kMaxDetections)
    return where("shape: detections", static_cast<long>(out.dets.size()));
  const float w = static_cast<float>(out.image_w);
  const float h = static_cast<float>(out.image_h);
  for (std::size_t i = 0; i < out.dets.size(); ++i) {
    const ada::EvalDetection& d = out.dets[i];
    const long at = static_cast<long>(i);
    if (!(d.box.x1 >= 0.0f && d.box.y1 >= 0.0f && d.box.x2 <= w &&
          d.box.y2 <= h && d.box.x1 <= d.box.x2 && d.box.y1 <= d.box.y2))
      return where("shape: box outside the image at", at);
    if (!(d.score >= kScoreFloor && d.score <= 1.0f))
      return where("shape: score out of [0.05, 1] at", at);
    if (i > 0 && d.score > out.dets[i - 1].score)
      return where("shape: scores increase at", at);
    if (d.class_id < 0 || d.class_id >= num_classes)
      return where("shape: class id out of range at", at);
  }
  return "";
}

double own_iou(const ada::Box& a, const ada::Box& b) {
  const double iw = std::min<double>(a.x2, b.x2) - std::max<double>(a.x1, b.x1);
  const double ih = std::min<double>(a.y2, b.y2) - std::max<double>(a.y1, b.y1);
  if (iw <= 0.0 || ih <= 0.0) return 0.0;
  const double inter = iw * ih;
  const double area_a = (static_cast<double>(a.x2) - a.x1) * (a.y2 - a.y1);
  const double area_b = (static_cast<double>(b.x2) - b.x1) * (b.y2 - b.y1);
  const double uni = area_a + area_b - inter;
  return uni > 0.0 ? inter / uni : 0.0;
}

std::string check_nms(const FrameSummary& out) {
  const auto& d = out.dets;
  for (std::size_t i = 0; i < d.size(); ++i)
    for (std::size_t j = i + 1; j < d.size(); ++j)
      if (d[i].class_id == d[j].class_id &&
          own_iou(d[i].box, d[j].box) > kNmsIou + 1e-5)
        return where("nms: same-class overlap above 0.3 between",
                     static_cast<long>(i), static_cast<long>(j));
  return "";
}

std::string check_dff(const std::vector<FrameSummary>& frames,
                      const std::vector<bool>& snippet_start,
                      int max_interval) {
  if (frames.size() != snippet_start.size())
    return "dff: frame and schedule lengths differ";
  int warps = 0;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    if (!frames[i].dff) return where("dff: frame not served by DFF at",
                                      static_cast<long>(i));
    if (snippet_start[i] && !frames[i].dff_key)
      return where("dff: snippet does not start on a key frame at",
                   static_cast<long>(i));
    warps = frames[i].dff_key ? 0 : warps + 1;
    if (warps > max_interval)
      return where("dff: warp run longer than max_interval at",
                   static_cast<long>(i));
  }
  return "";
}

std::vector<std::uint8_t> output_bytes(const ada::AdaFrameOutput& out) {
  std::vector<std::uint8_t> b;
  const ada::DetectionOutput& det = out.detections;
  b.reserve(64 + det.detections.size() * 256);
  put(&b, det.image_h);
  put(&b, det.image_w);
  put(&b, out.scale_used);
  put(&b, out.next_scale);
  put(&b, out.regressed_t);
  put(&b, static_cast<std::uint8_t>(out.dff_key));
  put(&b, det.detections.size());
  for (const ada::Detection& d : det.detections) {
    put_box(&b, d.box);
    put(&b, d.class_id);
    put(&b, d.score);
    for (float p : d.probs) put(&b, p);
    for (float v : d.delta) put(&b, v);
    put_box(&b, d.anchor);
  }
  return b;
}

std::uint64_t digest(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint8_t b : bytes) h = (h ^ b) * 0x100000001b3ULL;
  return h;
}

std::string check_replay(const std::vector<std::uint64_t>& served,
                         const std::vector<std::uint64_t>& replay) {
  if (served.size() != replay.size())
    return where("replay: frames served/replayed",
                 static_cast<long>(served.size()),
                 static_cast<long>(replay.size()));
  for (std::size_t i = 0; i < served.size(); ++i)
    if (served[i] != replay[i])
      return where("replay: output bytes differ from the serial replay at",
                   static_cast<long>(i));
  return "";
}

double own_map_percent(const std::vector<EvalFrame>& frames, int num_classes) {
  struct Cand {
    double score;
    std::size_t frame, index;
    ada::Box box;
  };
  double sum = 0.0;
  int classes = 0;
  for (int c = 0; c < num_classes; ++c) {
    long gt_total = 0;
    std::vector<Cand> cands;
    for (std::size_t f = 0; f < frames.size(); ++f) {
      for (const ada::GtBox& g : frames[f].gts) gt_total += g.class_id == c;
      for (std::size_t i = 0; i < frames[f].dets.size(); ++i)
        if (frames[f].dets[i].class_id == c)
          cands.push_back({frames[f].dets[i].score, f, i,
                           frames[f].dets[i].box});
    }
    if (gt_total == 0) continue;
    std::sort(cands.begin(), cands.end(), [](const Cand& a, const Cand& b) {
      if (a.score != b.score) return a.score > b.score;
      if (a.frame != b.frame) return a.frame < b.frame;
      return a.index < b.index;
    });
    std::vector<std::vector<bool>> taken(frames.size());
    for (std::size_t f = 0; f < frames.size(); ++f)
      taken[f].assign(frames[f].gts.size(), false);
    std::vector<double> recall, precision;
    long tp = 0, fp = 0;
    for (const Cand& k : cands) {
      const auto& gts = frames[k.frame].gts;
      int hit = -1;
      double best = 0.5;
      for (std::size_t g = 0; g < gts.size(); ++g) {
        if (gts[g].class_id != c || taken[k.frame][g]) continue;
        const double v =
            own_iou(k.box, ada::Box{gts[g].x1, gts[g].y1, gts[g].x2, gts[g].y2});
        if (v >= best) {
          best = v;
          hit = static_cast<int>(g);
        }
      }
      if (hit >= 0) {
        taken[k.frame][static_cast<std::size_t>(hit)] = true;
        ++tp;
      } else {
        ++fp;
      }
      recall.push_back(static_cast<double>(tp) / static_cast<double>(gt_total));
      precision.push_back(static_cast<double>(tp) /
                          static_cast<double>(tp + fp));
    }
    // All-point interpolation: area under the monotone precision envelope.
    double ap = 0.0, envelope = 0.0;
    for (std::size_t i = precision.size(); i-- > 0;) {
      envelope = std::max(envelope, precision[i]);
      const double prev = i > 0 ? recall[i - 1] : 0.0;
      ap += (recall[i] - prev) * envelope;
    }
    sum += ap;
    ++classes;
  }
  return classes > 0 ? 100.0 * sum / classes : 0.0;
}

std::string check_map(double program_map_percent, double own_map_percent,
                      double tolerance_points) {
  if (!(std::abs(program_map_percent - own_map_percent) <= tolerance_points)) {
    std::ostringstream os;
    os << "map: MapEvaluator reads " << program_map_percent
       << " but the own AP code reads " << own_map_percent;
    return os.str();
  }
  return "";
}

}  // namespace perfbench
