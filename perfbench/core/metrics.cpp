#include "metrics.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <fstream>
#include <map>
#include <stdexcept>
#include <thread>

#include "serve/json.hpp"

namespace perfbench {

using sateda::serve::Json;

const std::vector<std::string>& cec_instance_names() {
  static const std::vector<std::string> names = {
      "mult5", "mut5a", "mut5b", "mult6", "mut6a", "mut6b",
      "mult7", "mut7a", "mut7b", "adder64"};
  return names;
}

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"wall_s", "s"},
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"queries_per_s", "1/s"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = [] {
    std::vector<MetricSpec> s = {
        // circuit / csat / cnf front end (cec_mult)
        {"circuit.parse_s", "s"},
        {"circuit.miter_s", "s"},
        {"circuit.strash_s", "s"},
        {"circuit.rewrite_s", "s"},
        {"circuit.encode_s", "s"},
        {"csat.hints_s", "s"},
        {"circuit.nodes_after_rewrite", "count"},
        {"cnf.clauses", "count"},
        // sat (every workload)
        {"sat.load_s", "s"},
        {"sat.solve_s", "s"},
        {"sat.conflicts", "count"},
        {"sat.decisions", "count"},
        {"sat.propagations", "count"},
        {"sat.arena_gc_runs", "count"},
        {"sat.proof_additions", "count"},
        // drat / equiv (cec_mult)
        {"drat.check_s", "s"},
        {"drat.steps_checked", "count"},
        {"drat.steps_skipped", "count"},
        {"drat.useful_ratio", "ratio"},
        {"equiv.cex_replay_s", "s"},
        // atpg (atpg_faultlist)
        {"atpg.collapse_s", "s"},
        {"atpg.faults", "count"},
        {"atpg.random_sim_s", "s"},
        {"atpg.random_detected", "count"},
        {"atpg.drop_sim_s", "s"},
        {"atpg.tpg_s", "s"},
        {"atpg.sat_calls", "count"},
        {"atpg.tpg_conflicts", "count"},
        {"atpg.tpg_p50_ms", "ms"},
        {"atpg.tpg_p90_ms", "ms"},
        {"atpg.redundant", "count"},
        {"atpg.aborted", "count"},
        {"atpg.compact_s", "s"},
        {"atpg.tests", "count"},
        {"atpg.tests_kept", "count"},
        {"atpg.replay_s", "s"},
        // serve / session (serve_atpg)
        {"latency_p50_ms", "ms"},
        {"latency_p99_ms", "ms"},
        {"cold_latency_p50_ms", "ms"},
        {"serve.solve_ms_p50", "ms"},
        {"serve.queue_wait_ms_p50", "ms"},
        {"serve.queue_wait_ms_p99", "ms"},
        {"serve.response_bytes_mean", "bytes"},
        {"serve.json_parse_us", "us"},
        {"cnf.dimacs_parse_ms", "ms"},
        {"session.query_ms_p50", "ms"},
        {"session.conflicts", "count"},
        {"session.propagations", "count"},
        // the traced run itself
        {"trace.overhead_frac", "ratio"},
        {"trace.spans", "count"},
        {"self.circuit_share", "ratio"},
        {"self.csat_share", "ratio"},
        {"self.sat_share", "ratio"},
        {"self.drat_share", "ratio"},
        {"self.atpg_share", "ratio"},
        {"self.equiv_share", "ratio"},
        {"self.cnf_share", "ratio"},
        {"self.serve_share", "ratio"},
    };
    for (const std::string& n : cec_instance_names()) {
      s.push_back({"cec." + n + "_s", "s"});
    }
    return s;
  }();
  return specs;
}

bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  if (!std::isalnum(static_cast<unsigned char>(name[0]))) return false;
  return std::all_of(name.begin(), name.end(), [](char ch) {
    return std::isalnum(static_cast<unsigned char>(ch)) || ch == '_' ||
           ch == '.' || ch == '-';
  });
}

void RunResult::set(const std::string& name, double value) {
  for (auto& [n, v] : values) {
    if (n == name) {
      v = value;
      return;
    }
  }
  values.emplace_back(name, value);
}

void RunResult::fail(const std::string& why) {
  correct = false;
  errors.push_back(why);
}

std::string result_json(const RunResult& r, bool trace) {
  const std::vector<MetricSpec>& catalog =
      trace ? per_layer_metrics() : end_to_end_metrics();
  std::map<std::string, double> have(r.values.begin(), r.values.end());
  if (have.size() != catalog.size()) {
    throw std::logic_error("run reported " + std::to_string(have.size()) +
                           " metrics, catalog has " +
                           std::to_string(catalog.size()));
  }
  Json metrics = Json::object();
  for (const MetricSpec& m : catalog) {
    auto it = have.find(m.name);
    if (it == have.end()) {
      throw std::logic_error("run did not report " + m.name);
    }
    if (!std::isfinite(it->second)) {
      throw std::logic_error("metric " + m.name + " is not finite");
    }
    Json entry = Json::object();
    entry.set("value", it->second);
    entry.set("unit", m.unit);
    metrics.set(m.name, std::move(entry));
  }
  Json out = Json::object();
  out.set("correct", r.correct);
  out.set("attempted", r.attempted);
  out.set("failed", r.failed);
  out.set("metrics", std::move(metrics));
  return out.dump();
}

std::string host_json(const RunConfig& cfg) {
  std::string cpu = "unknown";
  std::ifstream info("/proc/cpuinfo");
  for (std::string line; std::getline(info, line);) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        cpu = line.substr(line.find_first_not_of(' ', colon + 1));
      }
      break;
    }
  }
  Json h = Json::object();
  h.set("cpu", cpu);
  h.set("nproc", static_cast<int>(std::thread::hardware_concurrency()));
  h.set("compiler", PERFBENCH_COMPILER);
  h.set("build_flags", PERFBENCH_BUILD_FLAGS);
  h.set("commit", cfg.commit);
  h.set("workload", cfg.workload);
  h.set("seed", static_cast<std::int64_t>(cfg.seed));
  h.set("seconds", cfg.seconds);
  h.set("trace", cfg.trace);
  return h.dump();
}

double percentile(std::vector<double> values, double q) {
  if (!(q > 0.0 && q < 1.0)) {
    throw std::invalid_argument("percentile: q must lie in (0, 1)");
  }
  const double beyond = static_cast<double>(values.size()) * (1.0 - q);
  if (beyond < 10.0) {
    throw std::invalid_argument(
        "percentile: p" + std::to_string(q * 100.0) + " of " +
        std::to_string(values.size()) +
        " samples leaves fewer than 10 beyond it");
  }
  std::sort(values.begin(), values.end());
  const double idx = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (idx - static_cast<double>(lo));
}

double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of no values");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
