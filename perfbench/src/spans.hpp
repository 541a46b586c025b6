// Span recorder of the benchmark runner.
//
// Spans are opened and closed here, in the benchmark's own files, around each
// public call into a layer (data generation, graph build/train/label/eval,
// snapshot save, server start, request round trips). They are kept in memory
// and written out once, at the end of the run, so recording costs a clock
// read and a vector append.
//
// In a traced run the recorder also snapshots the library's existing metrics
// registry (the phase.*, graph.l<i>.*, sparse.*, present.* and serve.*
// counters, plus histogram counts and sums) when a main-thread span opens and
// closes, and stores the difference with the span. Untraced runs leave the
// registry gate off and record timings only.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pss::obs {
class JsonWriter;
}

namespace perfbench {

/// How a span's self time is attributed (see analysis.py).
enum class SpanKind {
  kGroup,    ///< container: its self time is benchmark glue (unattributed)
  kLayer,    ///< its whole self time belongs to the layer it names
  kCompute,  ///< wraps a library call; layers inside it are attributed from
             ///< the leaf *.ns counters the call published (traced runs)
};

struct Span {
  std::uint64_t id = 0;
  std::int64_t parent = -1;  ///< -1 = root
  std::uint64_t trace = 0;   ///< request id shared by one request's spans
  std::string name;
  SpanKind kind = SpanKind::kGroup;
  std::uint64_t t0_ns = 0;
  std::uint64_t t1_ns = 0;
  std::map<std::string, double> deltas;  ///< metric deltas (traced only)
};

/// Main-thread only: request spans are recorded after the load generator's
/// threads have been joined.
class Recorder {
 public:
  explicit Recorder(bool traced);

  bool traced() const { return traced_; }

  /// Opens a span on the calling (main) thread, nested under the innermost
  /// open span. Returns its id.
  std::uint64_t open(const std::string& name, SpanKind kind,
                     std::uint64_t trace = 0);
  /// Closes the innermost open span, which must be `id`.
  void close(std::uint64_t id);

  /// Records an already completed span (no counters) — request spans built
  /// from timestamps the load generator threads took.
  std::uint64_t record(const std::string& name, SpanKind kind,
                       std::int64_t parent, std::uint64_t trace,
                       std::uint64_t t0_ns, std::uint64_t t1_ns);

  /// Marks the trace unusable (a span failed to close); write_json throws.
  void fail() { failed_ = true; }

  void write_json(pss::obs::JsonWriter& w) const;

 private:
  using Values = std::map<std::string, double>;
  static Values read_metrics();

  bool traced_;
  bool failed_ = false;
  std::vector<Span> spans_;
  std::vector<std::uint64_t> stack_;
  std::vector<Values> stack_values_;
};

/// RAII span on the main thread.
class Scope {
 public:
  Scope(Recorder& recorder, const std::string& name, SpanKind kind)
      : recorder_(recorder), id_(recorder.open(name, kind)) {}
  ~Scope() {
    try {
      recorder_.close(id_);
    } catch (...) {
      recorder_.fail();
    }
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  std::uint64_t id() const { return id_; }

 private:
  Recorder& recorder_;
  std::uint64_t id_;
};

}  // namespace perfbench
