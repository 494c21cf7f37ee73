// perfbench_serve — one run of one workload.
//
//   perfbench_serve --workload NAME --seed N --seconds S --trace 0|1
//                   --cache DIR [--trace-out FILE]
//
// Builds the workload's set-up, serves about S seconds of frames, checks
// every output, and prints one JSON object as its last line of standard
// output: the end-to-end metrics (--trace 0), or the per-layer breakdown
// of a traced run (--trace 1, spans written to FILE).  Exits non-zero
// without a result when the arguments or the prepared weights are missing.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "checks.h"
#include "data/scene.h"
#include "eval/map_evaluator.h"
#include "traced.h"
#include "workload.h"

namespace {

using namespace perfbench;

const Clock::time_point kProcessStart = Clock::now();

struct Args {
  std::string workload, cache, trace_out;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
};

bool parse(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a->workload = v;
    else if (k == "--seed") a->seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a->seconds = std::atof(v.c_str());
    else if (k == "--trace") a->trace = std::atoi(v.c_str());
    else if (k == "--cache") a->cache = v;
    else if (k == "--trace-out") a->trace_out = v;
    else return false;
  }
  return argc % 2 == 1 && !a->workload.empty() && !a->cache.empty() &&
         a->seconds > 0.0 && (a->trace == 0 || a->trace == 1);
}

/// Runs every correctness check; returns the failures (empty = correct).
std::vector<std::string> check_all(Setup* s, const ServeResult& r,
                                   double* map_percent) {
  std::vector<std::string> fails;
  auto note = [&](const std::string& why) {
    if (!why.empty()) fails.push_back(why);
  };
  const std::size_t n = s->streams.size();

  // Frame accounting against the benchmark's own schedule.
  std::vector<long> expected(n), served(r.frames.size());
  for (std::size_t i = 0; i < n; ++i)
    expected[i] = static_cast<long>(s->streams[i].frames.size());
  for (std::size_t i = 0; i < r.frames.size(); ++i)
    served[i] = static_cast<long>(r.frames[i].size());
  note(check_accounting(served, expected));
  if (!fails.empty()) return fails;

  // Per-frame properties, and the order of each stream's frames.
  const int classes = s->data().catalog().num_classes();
  for (std::size_t i = 0; i < n; ++i) {
    for (const FrameSummary& f : r.frames[i]) {
      note(check_decode(f, s->sreg));
      note(check_detection_shape(f, classes));
      note(check_nms(f));
    }
    note(check_scale_chain(r.frames[i], s->streams[i].snippet_start,
                           /*init_scale=*/600));
    if (s->spec.dff)
      note(check_dff(r.frames[i], s->streams[i].snippet_start,
                     s->dff.max_interval));
  }

  // Serial replay through a fresh pipeline of the first and the last
  // snippet of every stream.  Pipelines restart at snippet starts, so a
  // snippet replays on its own.
  ada::ModelPool::Lease lease = s->pool->acquire();
  for (std::size_t i = 0; i < n; ++i) {
    auto pipe = make_pipeline(*s, lease.detector, lease.regressor);
    std::vector<std::uint64_t> want, replay;
    const StreamFrames& sf = s->streams[i];
    const long frames = static_cast<long>(sf.frames.size());
    for (long k = 0; k < frames; ++k) {
      if (!replayed_frame(k, frames)) continue;
      const std::size_t j = static_cast<std::size_t>(k);
      if (sf.snippet_start[j]) pipe->reset();
      replay.push_back(digest(output_bytes(pipe->process(*sf.frames[j]))));
      want.push_back(r.frames[i][j].digest);
    }
    note(check_replay(want, replay));
  }
  s->pool->release(lease);

  // mAP in the scale-600 reference frame: MapEvaluator against own AP.
  const ada::ScalePolicy& policy = s->data().scale_policy();
  const int ref_h = policy.render_h(600), ref_w = policy.render_w(600);
  std::vector<std::string> names;
  for (int c = 0; c < classes; ++c)
    names.push_back(s->data().catalog().at(c).name);
  ada::MapEvaluator evaluator(names);
  std::vector<EvalFrame> own;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t k = 0; k < r.frames[i].size(); ++k) {
      const FrameSummary& f = r.frames[i][k];
      EvalFrame ef;
      ef.gts = ada::scene_ground_truth(*s->streams[i].frames[k], ref_h, ref_w);
      ef.dets = f.dets;
      for (ada::EvalDetection& e : ef.dets)
        e.box = ada::rescale_box(e.box, f.image_h, f.image_w, ref_h, ref_w);
      evaluator.add_frame(ef.gts, ef.dets);
      own.push_back(std::move(ef));
    }
  *map_percent = 100.0 * static_cast<double>(evaluator.compute().map);
  note(check_map(*map_percent, own_map_percent(own, classes)));
  return fails;
}

void print_result(bool correct, long attempted, long failed,
                  const std::map<std::string, Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  bool first = true;
  for (const auto& [name, m] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), m.value, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_serve --workload NAME --seed N --seconds S "
                 "--trace 0|1 --cache DIR [--trace-out FILE]\n");
    return 2;
  }
  WorkloadSpec spec;
  if (!find_workload(args.workload, &spec)) {
    std::fprintf(stderr, "perfbench_serve: unknown workload %s; one of:",
                 args.workload.c_str());
    for (const std::string& w : workload_names())
      std::fprintf(stderr, " %s", w.c_str());
    std::fprintf(stderr, "\n");
    return 2;
  }
  // One kernel thread per worker: workers x kernel threads stay within four
  // cores, and frames never share a kernel pool.
  setenv("ADASCALE_THREADS", "1", 1);

  std::unique_ptr<Setup> setup =
      build_setup(spec, args.seed, args.seconds, args.cache);
  if (!setup) return 3;
  const ServeResult r = serve(setup.get());
  // Peak memory of set-up and serving, before the checks add their own.
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double setup_s =
      std::chrono::duration<double>(r.timed_start - kProcessStart).count();

  double map_percent = 0.0;
  const std::vector<std::string> fails =
      check_all(setup.get(), r, &map_percent);
  for (const std::string& f : fails)
    std::fprintf(stderr, "perfbench: check failed: %s\n", f.c_str());

  std::map<std::string, Metric> metrics;
  if (args.trace == 0) {
    metrics["setup_s"] = {setup_s, "s"};
    metrics["fps"] = {percentile(r.round_fps, 50.0), "frames/s"};
    metrics["map"] = {map_percent, "%"};
    metrics["peak_rss_mb"] = {static_cast<double>(ru.ru_maxrss) / 1024.0,
                              "MB"};
  } else {
    metrics = traced_metrics(setup.get(), r, args.trace_out);
  }
  long attempted = 0;
  for (const StreamFrames& sf : setup->streams)
    attempted += static_cast<long>(sf.frames.size());
  print_result(fails.empty(), attempted,
               std::max(0L, attempted - r.served), metrics);
  return 0;
}
