#include "workloads.hpp"

#include <filesystem>
#include <fstream>
#include <iostream>
#include <stdexcept>

namespace perfbench {

std::vector<double> run_passes(double seconds,
                               const std::function<double()>& pass) {
  std::vector<double> times;
  double total = 0;
  do {
    times.push_back(pass());
    total += times.back();
    std::cout << "pass " << times.size() << ": " << times.back() << " s\n";
  } while (total < seconds);
  return times;
}

void finish_trace(const RunConfig& cfg, const Tracer& tracer,
                  double traced_s, RunResult& r) {
  std::filesystem::create_directories(cfg.out_dir);
  const std::string path = cfg.out_dir + "/" + cfg.workload + "-seed" +
                           std::to_string(cfg.seed) + ".trace.json";
  std::ofstream out(path);
  tracer.write_chrome_json(out, host_json(cfg));
  if (!out) throw std::runtime_error("cannot write " + path);
  std::cout << "chrome trace: " << path << "\n";

  const std::map<std::string, double> self = tracer.self_time_by_layer();
  std::cout << self_time_table(cfg.workload, self, traced_s);
  r.set("trace.spans", static_cast<double>(tracer.spans().size()));
  for (const char* layer : {"circuit", "csat", "sat", "drat", "atpg", "equiv",
                            "cnf", "serve"}) {
    const auto it = self.find(layer);
    r.set(std::string("self.") + layer + "_share",
          it == self.end() ? 0.0 : it->second / traced_s);
  }
}

void zero_unreported_layers(RunResult& r) {
  for (const MetricSpec& m : per_layer_metrics()) {
    bool have = false;
    for (const auto& [name, value] : r.values) have = have || name == m.name;
    if (!have) r.set(m.name, 0.0);
  }
}

}  // namespace perfbench
