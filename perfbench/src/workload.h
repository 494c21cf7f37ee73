// Workload set-up and the serving loop shared by every workload.
//
// A run builds its seeded evaluation snippets, loads the prepared weights,
// applies the workload's precision recipe, builds the program's
// MultiStreamRunner, warms every pool context at every snapped scale and
// serves one untimed warm-up snippet per stream (all of that is set-up,
// timed as setup_s).  The measured window then serves every snippet of the
// run through the program's own serving entry point,
// MultiStreamRunner::run_table, in rounds of kRoundSnippets snippets, one
// call per round; the number of rounds grows with the measuring time, so
// that a run measures about that long.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "adascale/pipeline.h"
#include "checks.h"
#include "data/dataset.h"
#include "experiments/harness.h"
#include "runtime/multi_stream.h"

namespace perfbench {

/// Every workload serves this many streams with this many workers, each
/// worker running one kernel thread: 4 cores in all.
constexpr int kStreams = 8;
constexpr int kWorkers = 4;

/// Snippets one run_table call of the window serves: 8 per stream.
constexpr int kRoundSnippets = 8 * kStreams;

/// One workload's make-up (see README.md for why each exists).
struct WorkloadSpec {
  std::string name;
  bool int8 = false;   ///< mixed-precision recipe (int8 detector)
  bool dff = false;    ///< DFF keyframe/warp serving
  /// Snippets served per second of measuring time: about 80 % of what the
  /// workload serves on the reference host, so a window lasts about as
  /// long as asked.
  int snippets_per_second = 16;
};

/// Looks a workload up by name; false when there is none.
bool find_workload(const std::string& name, WorkloadSpec* out);

/// Names of every workload, for usage messages.
std::vector<std::string> workload_names();

/// Snippets a run of `spec` serves for `seconds` of measuring time: a
/// whole number of rounds, at least one.  Job j goes to stream j % kStreams.
int eval_snippets(const WorkloadSpec& spec, double seconds);

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// One stream's frames, in serving order.
struct StreamFrames {
  std::vector<const ada::Scene*> frames;
  std::vector<bool> snippet_start;
};

/// Everything built before the first timed frame.
struct Setup {
  WorkloadSpec spec;
  std::unique_ptr<ada::Harness> harness;
  std::unique_ptr<ada::Dataset> eval;  ///< the seeded evaluation snippets
  ada::Detector* detector = nullptr;        ///< prepared prototype
  ada::ScaleRegressor* regressor = nullptr;  ///< prepared prototype
  std::unique_ptr<ada::MultiStreamRunner> runner;
  ada::ContextPool* pool = nullptr;  ///< the runner's pool for the workload
  std::vector<const ada::Snippet*> jobs;  ///< job j goes to stream j % kStreams
  std::vector<StreamFrames> streams;  ///< the same frames, per stream
  ada::ScaleSet sreg = ada::ScaleSet::reg_default();
  ada::DffServingConfig dff;

  /// Catalog, scale policy and snippets of the evaluation set.
  const ada::Dataset& data() const { return *eval; }

  // Set-up phases, seconds.
  double dataset_s = 0.0, weights_load_s = 0.0, quantize_s = 0.0,
         warmup_s = 0.0;
};

/// Builds the workload's set-up.  `cache_dir` must hold prepared weights
/// (perfbench_prepare); returns null with a message on stderr otherwise.
std::unique_ptr<Setup> build_setup(const WorkloadSpec& spec,
                                   std::uint64_t seed, double seconds,
                                   const std::string& cache_dir);

/// A fresh pipeline in the workload's serving mode over the given models.
std::unique_ptr<ada::AdaScalePipeline> make_pipeline(const Setup& s,
                                                     ada::Detector* det,
                                                     ada::ScaleRegressor* reg);

/// Frames the serial replay check re-serves through a fresh pipeline:
/// the first and the last snippet of every stream (`k` indexes the
/// stream's frames, `frames` is how many the stream has).
bool replayed_frame(long k, long frames);

/// Result of the measured serving window, taken from the
/// MultiStreamResults of its run_table calls.
struct ServeResult {
  /// Per stream, in the order the program returned them, rounds in order.
  std::vector<std::vector<FrameSummary>> frames;
  long served = 0;
  double wall_ms = 0.0;      ///< sum of the run_table calls, timed around each
  double busy_ms = 0.0;      ///< sum of the streams' busy_ms
  std::vector<double> round_fps;  ///< frames / wall of each call
  Clock::time_point timed_start;  ///< when the window opened
};

/// Serves the measured window, one run_table call per round.
ServeResult serve(Setup* s);

/// Nearest-rank percentile (q in [0, 100]) of an unsorted sample.
double percentile(std::vector<double> v, double q);

}  // namespace perfbench
