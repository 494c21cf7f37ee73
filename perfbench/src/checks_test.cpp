// perfbench_checks_test — each correctness check accepts a good output and
// rejects a deliberately corrupted one.  Exits non-zero on any miss.
#include <cstdio>
#include <utility>

#include "adascale/scale_target.h"
#include "checks.h"
#include "util/rng.h"

namespace {

using namespace perfbench;

int g_failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAIL: %s\n", what);
  }
}

void passes(const std::string& why, const char* what) {
  if (!why.empty()) std::fprintf(stderr, "  (%s)\n", why.c_str());
  expect(why.empty(), what);
}

void rejects(const std::string& why, const char* what) {
  expect(!why.empty(), what);
}

ada::Detection det(float x1, float y1, float x2, float y2, int cls,
                   float score) {
  ada::Detection d;
  d.box = ada::Box{x1, y1, x2, y2};
  d.class_id = cls;
  d.score = score;
  d.probs = {1.0f - score, score};
  return d;
}

ada::AdaFrameOutput output() {
  ada::AdaFrameOutput f;
  f.detections.image_h = 600;
  f.detections.image_w = 800;
  f.detections.detections = {det(10, 10, 100, 100, 1, 0.9f),
                             det(300, 300, 400, 420, 1, 0.6f),
                             det(20, 20, 110, 110, 2, 0.3f)};
  f.scale_used = 600;
  f.regressed_t = -0.2f;
  int alt = 0;
  f.next_scale = eq3_next_scale(f.regressed_t, 600, ada::ScaleSet::reg_default(),
                                &alt);
  return f;
}

FrameSummary frame() { return summarize(output(), /*with_digest=*/false); }

void test_accounting() {
  passes(check_accounting({3, 2}, {3, 2}), "accounting: good");
  rejects(check_accounting({2, 2}, {3, 2}), "accounting: a dropped frame");
  rejects(check_accounting({3, 3}, {3, 2}),
          "accounting: a frame served twice");
  rejects(check_accounting({3}, {3, 2}), "accounting: a stream missing");
}

void test_chain() {
  // Two snippets of three frames; each frame chose the next one's scale.
  const int used[] = {600, 480, 360, 600, 600, 480};
  const int next[] = {480, 360, 360, 600, 480, 480};
  std::vector<FrameSummary> fs(6);
  for (std::size_t i = 0; i < fs.size(); ++i) {
    fs[i].scale_used = used[i];
    fs[i].next_scale = next[i];
  }
  const std::vector<bool> start = {true, false, false, true, false, false};
  passes(check_scale_chain(fs, start, 600), "chain: good");
  std::vector<FrameSummary> swapped = fs;
  std::swap(swapped[1], swapped[2]);
  rejects(check_scale_chain(swapped, start, 600),
          "chain: frames out of order");
  std::vector<FrameSummary> dropped = fs;
  dropped.erase(dropped.begin() + 1);
  dropped.push_back(fs[5]);
  rejects(check_scale_chain(dropped, start, 600),
          "chain: a dropped frame, the rest shifted up");
  std::vector<FrameSummary> late = fs;
  late[3].scale_used = 360;
  rejects(check_scale_chain(late, start, 600),
          "chain: snippet not restarted at the initial scale");

  // DFF: a key, two warps that keep its scales, a key at the chosen scale.
  std::vector<FrameSummary> d(4);
  const int dused[] = {600, 600, 600, 480};
  const int dnext[] = {480, 480, 480, 480};
  for (std::size_t i = 0; i < d.size(); ++i) {
    d[i].dff = true;
    d[i].dff_key = i == 0 || i == 3;
    d[i].scale_used = dused[i];
    d[i].next_scale = dnext[i];
  }
  const std::vector<bool> dstart = {true, false, false, false};
  passes(check_scale_chain(d, dstart, 600), "chain: DFF good");
  d[2].scale_used = 480;
  rejects(check_scale_chain(d, dstart, 600),
          "chain: DFF warp frame off the key's scale");
}

void test_decode() {
  const ada::ScaleSet sreg = ada::ScaleSet::reg_default();
  // The own inversion agrees with the program's decode + snap everywhere.
  ada::Rng rng(7);
  int disagree = 0;
  for (int i = 0; i < 20000; ++i) {
    const float t = rng.uniform(-1.2f, 1.2f);
    const int scale = sreg.scales[static_cast<std::size_t>(i) % 5];
    int alt = 0;
    const int own = eq3_next_scale(t, scale, sreg, &alt);
    const int prog = sreg.nearest(ada::decode_scale_target(t, scale, sreg));
    disagree += prog != own && prog != alt;
  }
  expect(disagree == 0, "decode: own Eq. 3 inversion matches the program");

  FrameSummary f = frame();
  passes(check_decode(f, sreg), "decode: good");
  f.next_scale = f.next_scale == 600 ? 480 : 600;
  rejects(check_decode(f, sreg), "decode: a wrong next_scale");
  f = frame();
  f.scale_used = 500;
  rejects(check_decode(f, sreg), "decode: scale_used outside S_reg");
  f = frame();
  f.dff = true;
  f.dff_key = false;
  f.next_scale = 600;
  passes(check_decode(f, sreg), "decode: DFF warp frames keep their scale");
}

void test_shape() {
  passes(check_detection_shape(frame(), 30), "shape: good");
  FrameSummary f = frame();
  f.dets[1].score = 0.95f;
  rejects(check_detection_shape(f, 30), "shape: scores increase");
  f = frame();
  f.dets[2].score = 0.01f;
  rejects(check_detection_shape(f, 30), "shape: score below 0.05");
  f = frame();
  f.dets[0].box.x2 = 801.0f;
  rejects(check_detection_shape(f, 30), "shape: box outside image");
  f = frame();
  f.dets[0].class_id = 30;
  rejects(check_detection_shape(f, 30), "shape: class id");
  f = frame();
  f.dets.assign(301, f.dets[0]);
  rejects(check_detection_shape(f, 30), "shape: over 300");
}

void test_nms() {
  passes(check_nms(frame()), "nms: good (overlap across classes)");
  FrameSummary f = frame();
  f.dets[1].box = ada::Box{12, 12, 102, 102};
  rejects(check_nms(f), "nms: overlapping same-class boxes");
  expect(own_iou(ada::Box{0, 0, 10, 10}, ada::Box{5, 0, 15, 10}) > 0.333 &&
             own_iou(ada::Box{0, 0, 10, 10}, ada::Box{5, 0, 15, 10}) < 0.334,
         "nms: own IoU of half-overlapping squares is 1/3");
}

void test_dff() {
  std::vector<FrameSummary> fs(6);
  const bool key[] = {true, false, true, false, true, false};
  for (std::size_t i = 0; i < fs.size(); ++i) {
    fs[i].dff = true;
    fs[i].dff_key = key[i];
  }
  const std::vector<bool> start = {true, false, false, false, true, false};
  passes(check_dff(fs, start, 1), "dff: good");
  fs[2].dff_key = false;
  rejects(check_dff(fs, start, 1), "dff: warp run longer than max_interval");
  fs[2].dff_key = true;
  fs[4].dff_key = false;
  rejects(check_dff(fs, start, 1), "dff: snippet starting on a warp frame");
}

void test_replay() {
  const std::vector<std::uint8_t> bytes = output_bytes(output());
  const std::vector<std::uint64_t> a = {digest(bytes), digest(bytes)};
  passes(check_replay(a, a), "replay: identical");
  for (std::size_t byte : {std::size_t{0}, bytes.size() / 2, bytes.size() - 1}) {
    std::vector<std::uint8_t> flipped = bytes;
    flipped[byte] ^= 0x01;
    rejects(check_replay(a, {a[0], digest(flipped)}),
            "replay: one flipped detection byte");
  }
}

void test_map() {
  std::vector<EvalFrame> frames(40);
  std::vector<std::string> names = {"a", "b", "c"};
  ada::MapEvaluator ev(names);
  ada::Rng rng(11);
  for (EvalFrame& f : frames) {
    for (int g = 0; g < 3; ++g) {
      const float x = rng.uniform(0, 500), y = rng.uniform(0, 300);
      ada::GtBox gt;
      gt.x1 = x;
      gt.y1 = y;
      gt.x2 = x + 80;
      gt.y2 = y + 60;
      gt.class_id = rng.uniform_int(0, 2);
      f.gts.push_back(gt);
      ada::EvalDetection d;
      const float j = rng.uniform(-30, 30);
      d.box = ada::Box{x + j, y, x + 80 + j, y + 60};
      d.class_id = rng.uniform_int(0, 3) == 0 ? (gt.class_id + 1) % 3
                                               : gt.class_id;
      d.score = rng.uniform(0.05f, 1.0f);
      f.dets.push_back(d);
    }
    ev.add_frame(f.gts, f.dets);
  }
  const double prog = 100.0 * static_cast<double>(ev.compute().map);
  const double own = own_map_percent(frames, 3);
  expect(prog > 5.0 && prog < 95.0, "map: synthetic case is not degenerate");
  passes(check_map(prog, own), "map: own AP agrees with MapEvaluator");
  rejects(check_map(prog + 1.0, own), "map: an AP off by a point");
}

}  // namespace

int main() {
  test_accounting();
  test_chain();
  test_decode();
  test_shape();
  test_nms();
  test_dff();
  test_replay();
  test_map();
  if (g_failures == 0) std::printf("perfbench_checks_test: all checks pass\n");
  return g_failures == 0 ? 0 : 1;
}
