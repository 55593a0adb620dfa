// sateda-perfbench: time to a certified verdict on one workload.
//
//   sateda-perfbench --workload cec_mult|atpg_faultlist|serve_atpg
//                    --seed N --seconds S --trace 0|1
//                    [--commit ID] [--out-dir DIR]
//
// Prints the host metadata, any reference mismatches, the traced run's
// self-time table, and as its last line the result object
// {"correct", "attempted", "failed", "metrics"}.  Exits 2 on bad usage
// and 1 when a workload cannot finish; a wrong answer is reported as
// "correct": false.

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>

#include "workloads.hpp"

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig cfg;
  try {
    std::map<std::string, std::string> args;
    for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
    if (argc % 2 == 0 || !args.count("--workload")) {
      throw std::invalid_argument("expected --workload NAME and flag/value pairs");
    }
    for (const auto& [flag, value] : args) {
      if (flag == "--workload") cfg.workload = value;
      else if (flag == "--seed") cfg.seed = std::stoull(value);
      else if (flag == "--seconds") cfg.seconds = std::stod(value);
      else if (flag == "--trace") cfg.trace = std::stoi(value) != 0;
      else if (flag == "--commit") cfg.commit = value;
      else if (flag == "--out-dir") cfg.out_dir = value;
      else throw std::invalid_argument("unknown flag " + flag);
    }
    if (!(cfg.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  } catch (const std::exception& e) {
    std::cerr << "usage error: " << e.what() << "\n";
    return 2;
  }

  using Runner = RunResult (*)(const RunConfig&);
  const std::map<std::string, Runner> runners = {
      {"cec_mult", run_cec},
      {"atpg_faultlist", run_atpg},
      {"serve_atpg", run_serve},
  };
  const auto it = runners.find(cfg.workload);
  if (it == runners.end()) {
    std::cerr << "unknown workload " << cfg.workload << "\n";
    return 2;
  }
  try {
    std::cout << "host " << host_json(cfg) << std::endl;
    const RunResult r = it->second(cfg);
    const std::size_t shown = std::min<std::size_t>(r.errors.size(), 20);
    for (std::size_t i = 0; i < shown; ++i) {
      std::cout << "MISMATCH " << r.errors[i] << "\n";
    }
    if (r.errors.size() > shown) {
      std::cout << "MISMATCH ... " << r.errors.size() - shown << " more\n";
    }
    std::cout << result_json(r, cfg.trace) << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
