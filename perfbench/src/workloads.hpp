// Workload entry points of the benchmark runner (see perfbench/workloads.json
// for why each workload exists and which metrics it should move).
//
// A workload gets only the options below. Every input it presents — images,
// network seeds, the arrival schedule — is generated here from `seed`, so the
// same seed gives the same inputs and the library sees nothing else.
#pragma once

#include <cstdint>
#include <string>

#include "spans.hpp"

namespace pss::obs {
class JsonWriter;
}

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Run length the work is sized for. The work is a fixed function of
  /// (seed, seconds), so results are reproducible while the wall time
  /// tracks the requested length.
  double seconds = 10.0;
  bool traced = false;
  std::string workdir;  ///< scratch files (model snapshot)
};

/// Independent 64-bit stream of `seed` for one consumer (splitmix64).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// Seed of the model recipe every workload trains: its training and
/// labelling images and the network initialisation. It is fixed so every run
/// trains the same model. At these training budgets the learned model's
/// accuracy moves by tens of percent between training sets and
/// initialisations (digits_stacked: 12 % to 37 % over eight of them), which
/// would swamp any comparison between runs; the run seed generates
/// everything the model is then asked about (evaluation images, request
/// images, arrival schedule).
inline constexpr std::uint64_t kModelSeed = 0x5eed;

/// Set-ups each run times (setup_s is their median); the last one is the
/// one measured.
inline constexpr std::size_t kSetupRepeats = 3;

/// Simulation threads of every workload (the workloads are defined for a
/// 4-core host; most kernels run inline below the Engine grain anyway).
inline constexpr std::size_t kThreads = 4;

/// Each writes its workload's raw results as members of the open JSON
/// object; derived metrics are computed by perfbench/analysis.py.
void run_digits(const Options& options, Recorder& recorder,
                pss::obs::JsonWriter& w);
void run_serve_mixed(const Options& options, Recorder& recorder,
                     pss::obs::JsonWriter& w);

}  // namespace perfbench
