// Training checkpoints: everything needed to resume an interrupted training
// run bitwise-identically — learned state (conductances, homeostatic theta),
// the presentation cursor (index + biological clock), the seed, accumulated
// stats, and resume lineage (run id / parent run id / checkpoint ordinal).
//
// Why this is sufficient for bitwise resume: a presentation's outcome is a
// pure function of (config, conductances, theta, presentation_index, rates)
// — all RNG draws are counter-indexed from the presentation index, and
// dynamic neuron state resets at each presentation boundary (see
// WtaNetwork::present). Restoring the fields above therefore puts the
// network in exactly the state the uninterrupted run had at the same image.
//
// On-disk format (little-endian, host layout):
//   magic "PSSCKPT1" (8 B) · u32 version · u64 payload_size · u32 crc32
//   then `payload_size` bytes of payload, CRC-guarded:
//     u64 run_id · u64 parent_run_id · u64 checkpoint_count · u64 seed ·
//     u64 images_done · u64 presentation_cursor · f64 now_ms ·
//     f64 simulated_ms · f64 wall_seconds · u64 images_presented ·
//     u64 total_post_spikes · u64 total_input_spikes ·
//     u32 neuron_count · u32 input_channels · f64 g_min · f64 g_max ·
//     vec<f64> conductance · vec<f64> theta   (vec = u64 count + raw data)
//
// Version 2 (multi-layer graphs) appends, after the v1 fields:
//     vec<char> arch (canonical layers spec) ·
//     u32 input_channels · u32 input_height · u32 input_width (frame shape) ·
//     u64 extra_block_count · per extra block
//       { u32 neurons · u32 inputs · f64 g_min · f64 g_max ·
//         vec<f64> conductance · vec<f64> theta } ·
//     vec<i32> final-block neuron labels
// A single-layer stacked checkpoint (empty arch) is written as version 1 —
// byte-for-byte the pre-graph format — and the stacked loader accepts both,
// so pre-graph checkpoint blobs roundtrip bitwise through the new reader
// (tests/test_graph.cpp regression-checks a committed v1 fixture).
//
// Writes are atomic (temp file + rename), so a crash mid-write — injected or
// real — leaves the previous checkpoint intact.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pss {
class WtaNetwork;
}

namespace pss::robust {

struct TrainingCheckpoint {
  // Resume lineage.
  std::uint64_t run_id = 0;         ///< id of the run that wrote this
  std::uint64_t parent_run_id = 0;  ///< 0 = original (not itself a resume)
  std::uint64_t checkpoint_count = 0;  ///< ordinal across the whole lineage

  // Training-progress cursor.
  std::uint64_t seed = 0;
  std::uint64_t images_done = 0;          ///< images fully trained
  std::uint64_t presentation_cursor = 0;  ///< network presentation index
  double now_ms = 0.0;                    ///< network biological clock

  // Accumulated graph::TrainingStats (plain fields; graph_trainer.hpp
  // includes this header, not the other way round).
  double simulated_ms = 0.0;
  double wall_seconds = 0.0;
  std::uint64_t images_presented = 0;
  std::uint64_t total_post_spikes = 0;
  std::uint64_t total_input_spikes = 0;

  // Learned state.
  std::uint32_t neuron_count = 0;
  std::uint32_t input_channels = 0;
  double g_min = 0.0;
  double g_max = 1.0;
  std::vector<double> conductance;  ///< post-major, neurons * channels
  std::vector<double> theta;        ///< homeostatic offsets, size neurons

  /// Captures the learned state + cursor of `network` (lineage and stats
  /// fields are the caller's to fill).
  static TrainingCheckpoint capture(const WtaNetwork& network);

  /// Writes conductances, theta and the presentation cursor back into
  /// `network`. Geometry must match; throws pss::Error otherwise.
  void restore(WtaNetwork& network) const;
};

/// Atomic checkpoint write: serializes to `path`.tmp, fsyncs the stream, and
/// renames over `path`. Honors fault points `io.snapshot.write` (fails before
/// the rename — the previous file survives) and `snapshot.corrupt` (flips a
/// payload byte after the CRC is computed, producing a file load rejects).
/// Throws pss::Error / pss::TransientError on failure.
void save_checkpoint(const std::string& path, const TrainingCheckpoint& cp);

/// Validates magic, version, payload size against the file length, and the
/// payload CRC before parsing; every section is bounds-checked against the
/// bytes actually present, so corrupt or truncated files throw pss::Error
/// (never bad_alloc or short reads). Honors fault point `io.snapshot.read`.
TrainingCheckpoint load_checkpoint(const std::string& path);

/// Multi-layer (graph) training checkpoint: the v1 single-network state in
/// `base` (block 0 of the WTA stack — its cursor doubles as the graph
/// presentation cursor) plus the architecture string and the learned state
/// of the remaining blocks. `arch` empty means single-layer: save writes
/// exact v1 bytes and load accepts pre-graph files.
struct StackedCheckpoint {
  TrainingCheckpoint base;  ///< lineage/cursor/stats + block 0 learned state

  /// canonical_layers_spec() of the graph; "" = single-layer (v1 format).
  std::string arch;
  /// Raw input frame shape (v2 only; v1 implies {1, 1, base.input_channels}).
  std::uint32_t input_channels = 1;
  std::uint32_t input_height = 1;
  std::uint32_t input_width = 0;

  /// Learned state of one WTA block beyond the first.
  struct BlockState {
    std::uint32_t neuron_count = 0;
    std::uint32_t input_channels = 0;
    double g_min = 0.0;
    double g_max = 1.0;
    std::vector<double> conductance;
    std::vector<double> theta;
  };
  std::vector<BlockState> blocks;  ///< blocks 1..B-1, in stack order

  /// Final-block neuron labels (-1 = unlabelled); empty in v1 files and for
  /// unlabelled stacks.
  std::vector<std::int32_t> labels;

  bool single_layer() const { return arch.empty(); }
};

/// Stacked save: exact v1 bytes when `arch` is empty (blocks and labels must
/// be empty too), version 2 otherwise. Same atomicity and fault points as
/// save_checkpoint.
void save_stacked_checkpoint(const std::string& path,
                             const StackedCheckpoint& cp);

/// Unified multi-layer reader: accepts version 1 (fills `base`, leaves the
/// graph section empty) and version 2. Same validation and fault points as
/// load_checkpoint.
StackedCheckpoint load_stacked_checkpoint(const std::string& path);

/// Resume lineage surfaced to run manifests (see obs/manifest.hpp).
struct CheckpointLineage {
  bool resumed = false;
  std::uint64_t run_id = 0;
  std::uint64_t parent_run_id = 0;
  std::uint64_t checkpoint_count = 0;
  std::uint64_t presentation_cursor = 0;
};

}  // namespace pss::robust
