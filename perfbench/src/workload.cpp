#include "workload.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace perfbench {

namespace {

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> all = [] {
    std::vector<WorkloadSpec> w(3);
    w[0].name = "adascale_fp32";
    w[1].name = "adascale_int8";
    w[1].int8 = true;
    w[1].snippets_per_second = 20;
    w[2].name = "adascale_dff";
    w[2].dff = true;
    w[2].snippets_per_second = 20;
    return w;
  }();
  return all;
}

std::uint64_t mix_seed(std::uint64_t x) {
  // splitmix64 finalizer: nearby --seed values give unrelated snippets.
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

}  // namespace

int eval_snippets(const WorkloadSpec& spec, double seconds) {
  const int rounds = std::max(1, static_cast<int>(std::ceil(
      spec.snippets_per_second * seconds / kRoundSnippets)));
  return rounds * kRoundSnippets;
}

bool replayed_frame(long k, long frames) {
  const long snippet = ada::VideoConfig{}.frames_per_snippet;
  return k < snippet || k >= frames - snippet;
}

bool find_workload(const std::string& name, WorkloadSpec* out) {
  for (const WorkloadSpec& w : workloads())
    if (w.name == name) {
      *out = w;
      return true;
    }
  return false;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const WorkloadSpec& w : workloads()) names.push_back(w.name);
  return names;
}

std::unique_ptr<ada::AdaScalePipeline> make_pipeline(const Setup& s,
                                                     ada::Detector* det,
                                                     ada::ScaleRegressor* reg) {
  auto p = std::make_unique<ada::AdaScalePipeline>(
      det, reg, &s.harness->renderer(), s.data().scale_policy(), s.sreg,
      /*init_scale=*/600, /*snap_to_set=*/true);
  if (s.spec.dff) p->set_dff(s.dff);
  return p;
}

std::unique_ptr<Setup> build_setup(const WorkloadSpec& spec,
                                   std::uint64_t seed, double seconds,
                                   const std::string& cache_dir) {
  if (!std::ifstream(cache_dir + "/READY")) {
    std::fprintf(stderr,
                 "perfbench: no prepared weights in %s (run "
                 "perfbench_prepare first)\n",
                 cache_dir.c_str());
    return nullptr;
  }
  auto s = std::make_unique<Setup>();
  s->spec = spec;

  Clock::time_point t = Clock::now();
  s->harness.reset(new ada::Harness(ada::make_vid_harness(cache_dir)));
  s->eval = std::make_unique<ada::Dataset>(s->harness->dataset().sibling(
      /*train_snippets=*/0, eval_snippets(spec, seconds), mix_seed(seed)));
  s->streams.resize(kStreams);
  const std::vector<ada::Snippet>& snips = s->data().val_snippets();
  for (std::size_t j = 0; j < snips.size(); ++j) {
    s->jobs.push_back(&snips[j]);
    StreamFrames& sf = s->streams[j % s->streams.size()];
    for (std::size_t f = 0; f < snips[j].frames.size(); ++f) {
      sf.frames.push_back(&snips[j].frames[f]);
      sf.snippet_start.push_back(f == 0);
    }
  }
  s->dataset_s = seconds_since(t);

  t = Clock::now();
  const ada::ScaleSet strain = ada::ScaleSet::train_default();
  s->detector = s->harness->detector(strain);
  s->regressor = s->harness->regressor(
      strain, s->harness->default_regressor_config());
  s->weights_load_s = seconds_since(t);

  t = Clock::now();
  if (spec.int8) {
    s->harness->prepare_mixed_precision(s->detector, s->regressor);
  } else {
    s->detector->set_execution_policy(ada::ExecutionPolicy::fp32());
    s->regressor->set_execution_policy(ada::ExecutionPolicy::fp32());
  }
  s->quantize_s = seconds_since(t);

  // The program's runner: one master weight copy and one context per
  // worker.  Every context is then warmed at every snapped scale, and one
  // untimed snippet per stream is served through run_table, so that plans,
  // scratch arenas and caches settle before the window opens.
  t = Clock::now();
  s->runner = std::make_unique<ada::MultiStreamRunner>(
      s->detector, s->regressor, &s->harness->renderer(),
      s->data().scale_policy(), s->sreg, kStreams, /*init_scale=*/600,
      /*snap_scales=*/true, /*contexts_per_policy=*/kWorkers);
  if (spec.dff) s->runner->set_dff(s->dff);
  s->pool = s->runner->model_table()->pool_for(
      s->detector->execution_policy(), s->regressor->execution_policy());
  std::vector<ada::ModelPool::Lease> leases;
  for (int w = 0; w < kWorkers; ++w) leases.push_back(s->pool->acquire());
  const ada::Scene& scene = *s->streams[0].frames[0];
  const ada::Renderer& r = s->harness->renderer();
  for (const ada::ModelPool::Lease& lease : leases)
    for (int scale : s->sreg.scales) {
      const ada::Tensor img =
          r.render_at_scale(scene, scale, s->data().scale_policy());
      lease.detector->detect(img);
      lease.regressor->predict(lease.detector->features());
      if (spec.dff)
        lease.detector->detect_from_features(lease.detector->features(),
                                             img.h(), img.w());
    }
  for (const ada::ModelPool::Lease& lease : leases) s->pool->release(lease);
  const std::vector<const ada::Snippet*> warm(
      s->jobs.begin(),
      s->jobs.begin() + std::min<std::size_t>(s->jobs.size(), kStreams));
  ada::StreamTableConfig cfg;
  cfg.workers = kWorkers;
  s->runner->run_table(warm, cfg);
  s->warmup_s = seconds_since(t);
  return s;
}

ServeResult serve(Setup* s) {
  ada::StreamTableConfig cfg;
  cfg.workers = kWorkers;
  ServeResult out;
  out.frames.resize(kStreams);
  out.timed_start = Clock::now();
  for (std::size_t j = 0; j < s->jobs.size(); j += kRoundSnippets) {
    const std::vector<const ada::Snippet*> round(
        s->jobs.begin() + static_cast<long>(j),
        s->jobs.begin() + static_cast<long>(j + kRoundSnippets));
    const Clock::time_point t = Clock::now();
    const ada::MultiStreamResult r = s->runner->run_table(round, cfg);
    const double wall_ms = ms_between(t, Clock::now());
    // A round's jobs are a multiple of kStreams, so its stream i is the
    // window's stream i.
    long served = 0;
    for (std::size_t i = 0; i < r.streams.size(); ++i) {
      const ada::StreamOutput& so = r.streams[i];
      out.busy_ms += so.busy_ms;
      served += static_cast<long>(so.frames.size());
      for (const ada::AdaFrameOutput& f : so.frames)
        out.frames[i].push_back(summarize(f, /*with_digest=*/true));
    }
    out.served += served;
    out.wall_ms += wall_ms;
    out.round_fps.push_back(static_cast<double>(served) * 1000.0 / wall_ms);
  }
  return out;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q / 100.0 * static_cast<double>(v.size()));
  const std::size_t i = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return v[std::min(i, v.size() - 1)];
}

}  // namespace perfbench
