#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <stdexcept>

#include "serve/json.hpp"

namespace perfbench {

using sateda::serve::Json;

int Tracer::begin(std::string name, std::int64_t request) {
  const int parent = open_.empty() ? -1 : open_.back();
  if (request < 0 && parent >= 0) request = spans_[parent].request;
  const std::int64_t now = ns(Clock::now());
  spans_.push_back({std::move(name), now, now, parent, request, 0});
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::end(int span) {
  if (open_.empty() || open_.back() != span) {
    throw std::logic_error("trace: spans must close innermost first");
  }
  spans_[span].end_ns = ns(Clock::now());
  open_.pop_back();
}

int Tracer::add(std::string name, Clock::time_point start,
                Clock::time_point end, int parent, std::int64_t request,
                int track) {
  spans_.push_back({std::move(name), ns(start), ns(end), parent, request, track});
  return static_cast<int>(spans_.size()) - 1;
}

double Tracer::total_s(const std::string& name) const {
  std::int64_t sum = 0;
  for (const Span& s : spans_) {
    if (s.name == name) sum += s.end_ns - s.start_ns;
  }
  return static_cast<double>(sum) * 1e-9;
}

std::vector<double> Tracer::durations_ms(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-6);
    }
  }
  return out;
}

std::string layer_of(const std::string& span_name) {
  return span_name.substr(0, span_name.find('.'));
}

std::map<std::string, double> Tracer::self_time_by_layer() const {
  // Children of one span never overlap (each flow is sequential within
  // a request), so the covered time is the sum of the children's
  // durations, clipped to the parent.
  std::vector<std::int64_t> covered(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent < 0) continue;
    const Span& p = spans_[static_cast<std::size_t>(s.parent)];
    const std::int64_t lo = std::max(s.start_ns, p.start_ns);
    const std::int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) covered[static_cast<std::size_t>(s.parent)] += hi - lo;
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::int64_t own =
        std::max<std::int64_t>(0, s.end_ns - s.start_ns - covered[i]);
    self[layer_of(s.name)] += static_cast<double>(own) * 1e-9;
  }
  return self;
}

void Tracer::write_chrome_json(std::ostream& out,
                               const std::string& host_json) const {
  // Streamed event by event: a traced ATPG run holds ~10^5 spans.
  out << "{\"displayTimeUnit\":\"ms\",\"otherData\":" << host_json
      << ",\"traceEvents\":[";
  char buf[160];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "\n") << "{\"name\":" << Json(s.name).dump()
        << ",\"cat\":" << Json(layer_of(s.name)).dump();
    std::snprintf(buf, sizeof buf,
                  ",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,"
                  "\"tid\":%d,\"args\":{\"span\":%zu,\"parent\":%d,"
                  "\"request\":%lld}}",
                  static_cast<double>(s.start_ns) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3, s.track,
                  i, s.parent, static_cast<long long>(s.request));
    out << buf;
  }
  out << "\n]}\n";
}

std::string self_time_table(const std::string& workload,
                            const std::map<std::string, double>& self_s,
                            double traced_s) {
  std::string out = "self time, " + workload + " (traced " +
                    std::to_string(traced_s) + " s)\n";
  char buf[128];
  std::snprintf(buf, sizeof buf, "  %-10s %12s %8s\n", "layer", "self_s",
                "share");
  out += buf;
  double covered = 0;
  auto row = [&](const std::string& layer, double s) {
    std::snprintf(buf, sizeof buf, "  %-10s %12.6f %7.2f%%\n", layer.c_str(),
                  s, traced_s > 0 ? 100.0 * s / traced_s : 0.0);
    out += buf;
  };
  for (const auto& [layer, s] : self_s) {
    row(layer, s);
    covered += s;
  }
  // Time no span covers: the benchmark's own loop between calls.
  row("(no span)", traced_s - covered);
  return out;
}

}  // namespace perfbench
