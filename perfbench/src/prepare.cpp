// perfbench_prepare — trains the detector and scale regressor once.
//
//   perfbench_prepare DIR
//
// Trains (or loads, when DIR already holds them) the SynthVID detector on
// S_train and its scale regressor with the standard harness sizes, then
// writes DIR/READY.  perfbench_serve refuses to run without READY, so
// serving never trains.  Training runs with a fixed kernel pool of four
// threads, whatever the machine, in its own process: it is no part of any
// measured set-up time or memory.
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "experiments/harness.h"

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: perfbench_prepare DIR\n");
    return 2;
  }
  setenv("ADASCALE_THREADS", "4", 1);
  const std::string dir = argv[1];
  ada::Harness h = ada::make_vid_harness(dir);
  const ada::ScaleSet strain = ada::ScaleSet::train_default();
  h.detector(strain);
  h.regressor(strain, h.default_regressor_config());
  std::ofstream ready(dir + "/READY");
  ready << "trained\n";
  return ready ? 0 : 1;
}
