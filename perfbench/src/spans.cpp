#include "spans.hpp"

#include "pss/common/error.hpp"
#include "pss/obs/json_writer.hpp"
#include "pss/obs/metrics.hpp"

namespace perfbench {

namespace {

const char* kind_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kGroup:
      return "group";
    case SpanKind::kLayer:
      return "layer";
    case SpanKind::kCompute:
      return "compute";
  }
  return "group";
}

}  // namespace

Recorder::Recorder(bool traced) : traced_(traced) {}

Recorder::Values Recorder::read_metrics() {
  Values values;
  for (const pss::obs::MetricSnapshot& m : pss::obs::metrics().snapshot()) {
    switch (m.kind) {
      case pss::obs::MetricSnapshot::Kind::kCounter:
        values[m.name] = static_cast<double>(m.count);
        break;
      case pss::obs::MetricSnapshot::Kind::kHistogram:
        values[m.name + ".count"] = static_cast<double>(m.count);
        values[m.name + ".sum"] = m.value;
        break;
      case pss::obs::MetricSnapshot::Kind::kGauge:
        break;  // last-write-wins values have no meaningful delta
    }
  }
  return values;
}

std::uint64_t Recorder::open(const std::string& name, SpanKind kind,
                             std::uint64_t trace) {
  Values before;
  if (traced_) before = read_metrics();
  Span span;
  span.id = spans_.size();
  span.parent =
      stack_.empty() ? -1 : static_cast<std::int64_t>(stack_.back());
  span.trace = trace;
  span.name = name;
  span.kind = kind;
  span.t0_ns = pss::obs::monotonic_ns();
  spans_.push_back(std::move(span));
  stack_.push_back(spans_.back().id);
  stack_values_.push_back(std::move(before));
  return spans_.back().id;
}

void Recorder::close(std::uint64_t id) {
  const std::uint64_t t1 = pss::obs::monotonic_ns();
  PSS_REQUIRE(!stack_.empty() && stack_.back() == id,
              "perfbench: spans must close innermost first");
  spans_[id].t1_ns = t1;
  stack_.pop_back();
  const Values before = std::move(stack_values_.back());
  stack_values_.pop_back();
  if (!traced_) return;
  const Values after = read_metrics();
  std::map<std::string, double> deltas;
  for (const auto& [name, value] : after) {
    const auto it = before.find(name);
    const double delta = value - (it == before.end() ? 0.0 : it->second);
    if (delta != 0.0) deltas[name] = delta;
  }
  spans_[id].deltas = std::move(deltas);
}

std::uint64_t Recorder::record(const std::string& name, SpanKind kind,
                               std::int64_t parent, std::uint64_t trace,
                               std::uint64_t t0_ns, std::uint64_t t1_ns) {
  Span span;
  span.id = spans_.size();
  span.parent = parent;
  span.trace = trace;
  span.name = name;
  span.kind = kind;
  span.t0_ns = t0_ns;
  span.t1_ns = t1_ns;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Recorder::write_json(pss::obs::JsonWriter& w) const {
  PSS_REQUIRE(!failed_ && stack_.empty(),
              "perfbench: a span failed to close or was left open");
  w.begin_array();
  for (const Span& s : spans_) {
    w.begin_object();
    w.member("id", s.id);
    w.member("parent", s.parent);
    w.member("trace", s.trace);
    w.member("name", s.name);
    w.member("kind", kind_name(s.kind));
    w.member("t0_ns", s.t0_ns);
    w.member("t1_ns", s.t1_ns);
    if (!s.deltas.empty()) {
      w.key("deltas").begin_object();
      for (const auto& [name, value] : s.deltas) w.member(name, value);
      w.end_object();
    }
    w.end_object();
  }
  w.end_array();
}

}  // namespace perfbench
