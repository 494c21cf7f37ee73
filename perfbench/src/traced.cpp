#include "traced.h"

#include <immintrin.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "runtime/exec_plan.h"
#include "tensor/conv2d.h"
#include "tensor/image_ops.h"
#include "tensor/qgemm.h"
#include "video/optical_flow.h"

namespace perfbench {

namespace {

// Frames replayed span by span: the first snippets of the first streams.
constexpr int kTracedStreams = 4;
constexpr int kTracedSnippets = 3;

/// Spans kept in memory and written out when the run ends.
class Tracer {
 public:
  int begin(const char* name, int parent, long frame) {
    spans_.push_back({name, now_us(), 0.0, parent, frame});
    return static_cast<int>(spans_.size()) - 1;
  }
  /// Ends span `id`; returns its duration in ms.
  double end(int id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_us = now_us();
    return (s.end_us - s.start_us) / 1000.0;
  }
  bool write(const std::string& path) const {
    std::ofstream os(path);
    os << "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[320];
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                    "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                    "{\"id\": %zu, \"parent\": %d, \"frame\": %ld}}\n",
                    i ? "," : "", s.name, s.start_us, s.end_us - s.start_us,
                    i, s.parent, s.frame);
      os << buf;
    }
    os << "]}\n";
    return static_cast<bool>(os);
  }

 private:
  struct Span {
    const char* name;
    double start_us, end_us;
    int parent;
    long frame;
  };
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - t0_)
        .count();
  }
  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
};

/// Running mean.
struct Mean {
  double sum = 0.0;
  long n = 0;
  void add(double v) {
    sum += v;
    ++n;
  }
  double get() const { return n > 0 ? sum / static_cast<double>(n) : 0.0; }
};

template <typename Fn>
double median_ms(Fn&& fn, int reps) {
  fn();
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point a = Clock::now();
    fn();
    t.push_back(ms_between(a, Clock::now()));
  }
  return percentile(t, 50.0);
}

// ---- first-principles probes (one thread, like every serving worker) ----

// Each probe stores a result here so its loop cannot be optimised away.
volatile float g_sink = 0.0f;

__attribute__((target("avx512f"))) double fma_avx512(long iters) {
  __m512 a[8];
  const __m512 m = _mm512_set1_ps(0.999999f), c = _mm512_set1_ps(1e-7f);
  for (int i = 0; i < 8; ++i) a[i] = _mm512_set1_ps(static_cast<float>(i));
  for (long k = 0; k < iters; ++k)
    for (int i = 0; i < 8; ++i) a[i] = _mm512_fmadd_ps(a[i], m, c);
  __m512 s = a[0];
  for (int i = 1; i < 8; ++i) s = _mm512_add_ps(s, a[i]);
  float out[16];
  _mm512_storeu_ps(out, s);
  g_sink = out[0];
  return 2.0 * 8 * 16 * static_cast<double>(iters);
}

__attribute__((target("avx2,fma"))) double fma_avx2(long iters) {
  __m256 a[10];
  const __m256 m = _mm256_set1_ps(0.999999f), c = _mm256_set1_ps(1e-7f);
  for (int i = 0; i < 10; ++i) a[i] = _mm256_set1_ps(static_cast<float>(i));
  for (long k = 0; k < iters; ++k)
    for (int i = 0; i < 10; ++i) a[i] = _mm256_fmadd_ps(a[i], m, c);
  float out[8];
  __m256 s = a[0];
  for (int i = 1; i < 10; ++i) s = _mm256_add_ps(s, a[i]);
  _mm256_storeu_ps(out, s);
  g_sink = out[0];
  return 2.0 * 10 * 8 * static_cast<double>(iters);
}

double fma_scalar(long iters) {
  float a[8];
  for (int i = 0; i < 8; ++i) a[i] = static_cast<float>(i);
  for (long k = 0; k < iters; ++k)
    for (float& v : a) v = v * 0.999999f + 1e-7f;
  g_sink = a[0];
  return 2.0 * 8 * static_cast<double>(iters);
}

/// Peak single-thread fp32 GFLOP/s of the widest FMA unit (best of 5).
double probe_fma_gflops() {
  double (*fn)(long) = fma_scalar;
  if (__builtin_cpu_supports("avx512f")) fn = fma_avx512;
  else if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
    fn = fma_avx2;
  double best = 0.0;
  for (int r = 0; r < 5; ++r) {
    const Clock::time_point a = Clock::now();
    const double flops = fn(4000000);
    const double ms = ms_between(a, Clock::now());
    best = std::max(best, flops / (ms * 1e6));
  }
  return best;
}

/// Single-thread streaming copy bandwidth in GB/s, read + write (best of 5).
double probe_copy_gbps() {
  const std::size_t n = std::size_t{8} << 20;  // 32 MiB per buffer
  std::vector<float> a(n, 1.0f), b(n, 0.0f);
  double best = 0.0;
  for (int r = 0; r < 5; ++r) {
    const Clock::time_point t = Clock::now();
    std::memcpy(b.data(), a.data(), n * sizeof(float));
    const double ms = ms_between(t, Clock::now());
    best = std::max(best, 2.0 * static_cast<double>(n * sizeof(float)) /
                              (ms * 1e6));
  }
  g_sink = b[n - 1];
  return best;
}

/// Isolated timing of one conv of the detector's stack, at the workload's
/// precision, with synthetic inputs of the real shape.
double time_conv(const ada::Detector::ConvStackEntry& e, bool int8) {
  const ada::ConvSpec& sp = e.spec;
  ada::Tensor x(1, sp.in_channels, e.in_h, e.in_w);
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = static_cast<float>(i % 13) * 0.08f;
  ada::Tensor w(sp.out_channels, sp.in_channels, sp.kernel, sp.kernel);
  for (std::size_t i = 0; i < w.size(); ++i)
    w[i] = static_cast<float>(i % 7) * 0.05f - 0.15f;
  ada::Tensor b(1, sp.out_channels, 1, 1), y;
  const bool relu = std::strncmp(e.name, "conv", 4) == 0;
  if (!int8)
    return median_ms([&] {
      ada::conv2d_forward(sp, x, w, b, &y, relu, ada::GemmBackend::kPacked);
    }, 9);
  const ada::QuantizedWeights qw = ada::quantize_weights(
      w.data(), sp.out_channels, sp.in_channels * sp.kernel * sp.kernel,
      ada::choose_qparams(0.0f, 0.96f));
  return median_ms([&] {
    ada::conv2d_forward_int8(sp, x, qw, b, &y, relu);
  }, 9);
}

long long head_macs(const ada::Detector& det, int h, int w) {
  long long macs = 0;
  for (const auto& e : det.conv_stack(h, w))
    if (std::strncmp(e.name, "conv", 4) != 0)
      macs += ada::conv2d_macs(e.spec, e.in_h, e.in_w);
  return macs;
}

}  // namespace

std::map<std::string, Metric> traced_metrics(Setup* s,
                                             const ServeResult& window,
                                             const std::string& trace_out) {
  std::map<std::string, Metric> m;
  auto put = [&](const std::string& name, double v, const char* unit) {
    m[name] = Metric{v, unit};
  };
  const ada::Renderer& renderer = s->harness->renderer();
  const ada::ScalePolicy& policy = s->data().scale_policy();
  const int h600 = policy.render_h(600), w600 = policy.render_w(600);

  // ---- set-up phases and the runtime's counters ----
  put("setup.dataset_s", s->dataset_s, "s");
  put("setup.weights_load_s", s->weights_load_s, "s");
  put("setup.quantize_s", s->quantize_s, "s");
  put("setup.warmup_s", s->warmup_s, "s");
  ada::Detector* master = s->runner->model_table()->master_detector();
  std::size_t plans = 0;
  for (int i = 0; i < s->pool->size(); ++i)
    plans += s->pool->detector_at(i)->cached_plan_count() +
             s->pool->regressor_at(i)->cached_plan_count();
  put("runtime.plans_built", static_cast<double>(plans), "count");
  put("runtime.autotune_races", static_cast<double>(ada::autotune_cache_size()),
      "count");
  int int8_layers = 0;
  for (const ada::PlanStep& st : master->plan_for(1, h600, w600).steps)
    int8_layers += st.kernel == ada::KernelKind::kInt8;
  put("runtime.int8_layers", int8_layers, "count");

  // ---- the served window: the program's own dispatch ----
  // Worker time run_table spent outside AdaScalePipeline::process: ready-
  // set hand-offs, queue pops and the wait for the last stream to drain.
  put("runtime.table_ms_per_frame",
      window.wall_ms * kWorkers / static_cast<double>(window.served), "ms");
  put("runtime.dispatch_idle_pct",
      100.0 * (1.0 - window.busy_ms / (window.wall_ms * kWorkers)), "%");

  // ---- what the served frames were ----
  Mean scale, dets, gmacs;
  long frames = 0, keys = 0;
  for (const auto& stream : window.frames)
    for (const FrameSummary& f : stream) {
      ++frames;
      const bool key = !f.dff || f.dff_key;
      keys += key;
      scale.add(f.scale_used);
      dets.add(static_cast<double>(f.dets.size()));
      const int h = f.image_h, w = f.image_w;
      gmacs.add(static_cast<double>(key ? master->forward_macs(h, w)
                                        : head_macs(*master, h, w)) / 1e9);
    }
  put("adascale.mean_scale", scale.get(), "px");
  put("detection.detections_per_frame", dets.get(), "count");
  put("detection.gmacs_per_frame", gmacs.get(), "GMAC");
  put("video.key_share", frames > 0 ? static_cast<double>(keys) / frames : 0.0,
      "ratio");

  // ---- span-by-span replay of a sample of streams ----
  ada::ModelPool::Lease ctx = s->pool->acquire();
  ada::Detector* det = ctx.detector;
  ada::ScaleRegressor* reg = ctx.regressor;
  const int traced = std::min<int>(kTracedStreams,
                                   static_cast<int>(s->streams.size()));
  const std::size_t traced_frames_each = std::min<std::size_t>(
      s->streams[0].frames.size(),
      kTracedSnippets * static_cast<std::size_t>(
                            ada::VideoConfig{}.frames_per_snippet));
  double untraced_ms = 0.0;
  {
    auto pipe = make_pipeline(*s, det, reg);
    const Clock::time_point t = Clock::now();
    for (int sid = 0; sid < traced; ++sid) {
      const StreamFrames& sf = s->streams[static_cast<std::size_t>(sid)];
      for (std::size_t k = 0; k < traced_frames_each; ++k) {
        if (sf.snippet_start[k]) pipe->reset();
        pipe->process(*sf.frames[k]);
      }
    }
    untraced_ms = ms_between(t, Clock::now());
  }

  Tracer tr;
  Mean render, forward, decode_nms, regress, flow, warp, process, overhead,
      reported;
  long traced_frames = 0;
  auto pipe = make_pipeline(*s, det, reg);
  const Clock::time_point traced_start = Clock::now();
  const ada::DffServingConfig& dcfg = s->dff;
  for (int sid = 0; sid < traced; ++sid) {
    const StreamFrames& sf = s->streams[static_cast<std::size_t>(sid)];
    ada::Tensor key_feat, prev_gray;
    const ada::Scene* prev = nullptr;
    for (std::size_t k = 0; k < traced_frames_each; ++k) {
      const ada::Scene& scene = *sf.frames[k];
      const long fid = traced_frames++;
      if (sf.snippet_start[k]) pipe->reset();
      const int root = tr.begin("frame", -1, fid);
      const int ps = tr.begin("adascale.process", root, fid);
      const ada::AdaFrameOutput out = pipe->process(scene);
      const double p_ms = tr.end(ps);
      process.add(p_ms);
      reported.add(out.total_ms());

      // Re-issue the layer calls the pipeline made for this frame.
      double layers = 0.0;
      const int h = policy.render_h(out.scale_used);
      const int w = policy.render_w(out.scale_used);
      ada::Tensor gray_small, cur_gray, fy, fx, warped;
      if (!out.dff || out.dff_key) {
        int sp = tr.begin("data.render", root, fid);
        const ada::Tensor img =
            renderer.render_at_scale(scene, out.scale_used, policy);
        const double r_ms = tr.end(sp);
        sp = tr.begin("detection.forward", root, fid);
        det->forward(img);
        const double f_ms = tr.end(sp);
        sp = tr.begin("detection.detect", root, fid);
        det->detect(img);
        const double d_ms = tr.end(sp);
        key_feat = det->features();
        sp = tr.begin("adascale.regressor", root, fid);
        reg->predict(key_feat);
        const double g_ms = tr.end(sp);
        render.add(r_ms);
        forward.add(f_ms);
        decode_nms.add(d_ms - f_ms);
        regress.add(g_ms);
        layers += r_ms + d_ms + g_ms;
        if (out.dff) {
          sp = tr.begin("video.key_gray", root, fid);
          gray_small = ada::to_grayscale(
              renderer.render_at_scale(scene, dcfg.flow_render_scale, policy));
          ada::bilinear_resize(gray_small, key_feat.h(), key_feat.w(),
                               &prev_gray);
          layers += tr.end(sp);
        } else if (prev != nullptr) {
          // Not a DFF workload: what flow and warp would cost on these
          // frames, measured outside the pipeline's own work.
          ada::Tensor prev_small = ada::to_grayscale(
              renderer.render_at_scale(*prev, dcfg.flow_render_scale, policy));
          ada::bilinear_resize(prev_small, key_feat.h(), key_feat.w(),
                               &prev_gray);
          sp = tr.begin("video.flow_probe", root, fid);
          gray_small = ada::to_grayscale(
              renderer.render_at_scale(scene, dcfg.flow_render_scale, policy));
          ada::bilinear_resize(gray_small, key_feat.h(), key_feat.w(),
                               &cur_gray);
          ada::block_matching_flow(prev_gray, cur_gray, dcfg.flow, &fy, &fx);
          flow.add(tr.end(sp));
          sp = tr.begin("video.warp_probe", root, fid);
          ada::bilinear_warp(key_feat, fy, fx, &warped);
          warp.add(tr.end(sp));
        }
      } else {
        int sp = tr.begin("video.flow", root, fid);
        gray_small = ada::to_grayscale(
            renderer.render_at_scale(scene, dcfg.flow_render_scale, policy));
        ada::bilinear_resize(gray_small, key_feat.h(), key_feat.w(), &cur_gray);
        ada::block_matching_flow(prev_gray, cur_gray, dcfg.flow, &fy, &fx);
        const double fl_ms = tr.end(sp);
        sp = tr.begin("video.warp", root, fid);
        ada::bilinear_warp(key_feat, fy, fx, &warped);
        const double wa_ms = tr.end(sp);
        sp = tr.begin("detection.heads", root, fid);
        det->detect_from_features(warped, h, w);
        const double he_ms = tr.end(sp);
        sp = tr.begin("adascale.regressor", root, fid);
        reg->predict(warped);
        const double g_ms = tr.end(sp);
        flow.add(fl_ms);
        warp.add(wa_ms);
        regress.add(g_ms);
        render.add(0.0);  // warp frames render only the tiny flow source
        layers += fl_ms + wa_ms + he_ms + g_ms;
        prev_gray = cur_gray;
      }
      overhead.add(p_ms - layers);
      tr.end(root);
      prev = &scene;
    }
  }
  const double traced_ms = ms_between(traced_start, Clock::now());
  s->pool->release(ctx);

  put("data.render_ms", render.get(), "ms");
  put("detection.decode_nms_ms", decode_nms.get(), "ms");
  put("adascale.regressor_ms", regress.get(), "ms");
  put("video.flow_ms", flow.get(), "ms");
  put("video.warp_ms", warp.get(), "ms");
  put("adascale.process_ms", process.get(), "ms");
  put("adascale.pipeline_overhead_ms", overhead.get(), "ms");
  // What the program reports for the same calls (AdaFrameOutput::total_ms).
  put("adascale.reported_total_ms", reported.get(), "ms");
  // Frame rate the traced pass loses against the untraced pass over the
  // same frames: spans plus every re-issued layer call.  The served window
  // carries no tracing, so this cost never reaches the end-to-end metrics.
  const double fps_untraced = traced_frames * 1000.0 / untraced_ms;
  const double fps_traced = traced_frames * 1000.0 / traced_ms;
  put("trace.overhead_pct", 100.0 * (fps_untraced - fps_traced) / fps_untraced,
      "%");

  // ---- backbone + heads per snapped scale (same leased context) ----
  ctx = s->pool->acquire();
  for (int sc : s->sreg.scales) {
    std::vector<double> t;
    for (std::size_t k = 0; k < 4; ++k) {
      const ada::Tensor img = renderer.render_at_scale(
          *s->streams[0].frames[k], sc, policy);
      t.push_back(median_ms([&] { ctx.detector->forward(img); }, 3));
    }
    put("detection.forward_ms.s" + std::to_string(sc), percentile(t, 50), "ms");
  }
  s->pool->release(ctx);

  // ---- isolated convs at 600 against first-principles bounds ----
  const double peak = probe_fma_gflops();
  const double bw = probe_copy_gbps();
  put("probe.fma_gflops", peak, "GFLOP/s");
  put("probe.copy_gbps", bw, "GB/s");
  double conv_sum = 0.0;
  for (const auto& e : master->conv_stack(h600, w600)) {
    const double ms = time_conv(e, s->spec.int8);
    const double macs =
        static_cast<double>(ada::conv2d_macs(e.spec, e.in_h, e.in_w));
    const ada::ConvSpec& sp = e.spec;
    const int oh = (e.in_h + 2 * sp.pad - sp.dilation * (sp.kernel - 1) - 1) /
                       sp.stride + 1;
    const int ow = (e.in_w + 2 * sp.pad - sp.dilation * (sp.kernel - 1) - 1) /
                       sp.stride + 1;
    const double bytes =
        4.0 * (static_cast<double>(sp.in_channels) * e.in_h * e.in_w +
               static_cast<double>(sp.out_channels) * sp.in_channels *
                   sp.kernel * sp.kernel +
               static_cast<double>(sp.out_channels) * oh * ow);
    const std::string base = std::string("tensor.") + e.name;
    put(base + ".ms", ms, "ms");
    put(base + ".gflops", 2.0 * macs / (ms * 1e6), "GFLOP/s");
    put(base + ".bound_ms",
        std::max(2.0 * macs / (peak * 1e6), bytes / (bw * 1e6)), "ms");
    conv_sum += ms;
  }
  put("detection.unattributed_ms.s600",
      m["detection.forward_ms.s600"].value - conv_sum, "ms");

  if (!trace_out.empty() && !tr.write(trace_out))
    std::fprintf(stderr, "perfbench: could not write spans to %s\n",
                 trace_out.c_str());
  return m;
}

}  // namespace perfbench
