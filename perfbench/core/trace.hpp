/// \file trace.hpp
/// \brief In-memory spans for the traced run: one span around each call
///        into a layer, written out when the run ends.
///
/// A span's name is "<layer>.<what>"; the layer (the part before the
/// first '.') is the module the call enters.  Spans of one request (a
/// CEC instance, an ATPG circuit, a serve query) share its id.  Self
/// time is a span's duration minus the time its children cover.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::int64_t start_ns = 0;  ///< since the tracer's origin
  std::int64_t end_ns = 0;
  int parent = -1;            ///< index into Tracer::spans(), -1 for a root
  std::int64_t request = -1;
  int track = 0;              ///< timeline row (client) in the export
};

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  Tracer() : origin_(Clock::now()) {}

  /// Opens a span nested in the innermost open one.
  int begin(std::string name, std::int64_t request = -1);
  void end(int span);
  /// Records a finished span, e.g. one timed on another thread.
  int add(std::string name, Clock::time_point start, Clock::time_point end,
          int parent, std::int64_t request, int track = 0);

  const std::vector<Span>& spans() const { return spans_; }
  std::int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }

  /// Total duration of spans named \p name, in seconds.
  double total_s(const std::string& name) const;
  /// Durations of spans named \p name, in milliseconds.
  std::vector<double> durations_ms(const std::string& name) const;
  /// Self time per layer, in seconds.
  std::map<std::string, double> self_time_by_layer() const;

  /// Writes Chrome trace-event JSON ("X" complete events, microseconds),
  /// with \p host_json (an object) as its otherData.
  void write_chrome_json(std::ostream& out, const std::string& host_json) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span for straight-line flows.
class Scope {
 public:
  Scope(Tracer* t, std::string name, std::int64_t request = -1)
      : tracer_(t), span_(t ? t->begin(std::move(name), request) : -1) {}
  ~Scope() {
    if (tracer_) tracer_->end(span_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int span_;
};

/// Layer of a span name: the text before the first '.'.
std::string layer_of(const std::string& span_name);

/// Formats the per-layer self-time table, shares of \p traced_s.
std::string self_time_table(const std::string& workload,
                            const std::map<std::string, double>& self_s,
                            double traced_s);

}  // namespace perfbench
