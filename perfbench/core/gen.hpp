/// \file gen.hpp
/// \brief Seeded input generation for the three workloads.
///
/// Everything a workload hands the library is built here, from the
/// workload seed alone: `.bench` netlist text (parsed by the workload
/// through circuit::read_bench_string) and JSONL request lines for the
/// serve daemon.  The same seed gives byte-identical inputs; no
/// generator uses a std:: distribution, whose output the standard
/// leaves to the library implementation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Netlist {
  std::string name;
  std::string bench;  ///< ISCAS .bench text
};

/// One CEC instance: does `revised` compute the same outputs as
/// `golden`?
struct CecCase {
  std::string name;
  Netlist golden;
  Netlist revised;
  /// The answer is known from how the pair was built (wide circuits
  /// whose inputs are too many for exhaustive simulation).
  bool equivalent_by_construction = false;
};

/// Multiplier commutativity miters for n = 5..7, two single-gate
/// mutants of the swapped multiplier per n (each site redrawn until
/// exhaustive simulation shows the mutant changes the function), and
/// one resynthesized 64-bit adder.
std::vector<CecCase> cec_inputs(std::uint64_t seed);

/// alu(64) followed by kAtpgRandomCircuits small random netlists.
inline constexpr int kAtpgRandomCircuits = 512;
std::vector<Netlist> atpg_inputs(std::uint64_t seed);

/// The serve_atpg traffic: alu(32)'s collapsed fault list, shuffled by
/// the seed and dealt to three warm clients and one cold client.
struct ServeFault {
  std::string fault;       ///< atpg::to_string(fault), the request id
  std::string warm_add;    ///< "add" line for the fault's warm epoch
  std::string warm_solve;  ///< "solve" line for it
};
struct ServeClient {
  std::string session;
  std::vector<ServeFault> faults;
};
struct ServeInputs {
  Netlist circuit;
  std::string base_dimacs;  ///< good-circuit encoding (the load payload)
  /// Faults whose fault cone reaches no output; they get no query.
  std::vector<std::string> trivially_redundant;
  std::vector<ServeClient> warm;  ///< three sessions, push/add/solve/pop
  /// One-shot queries: per fault open, load, add, solve, close.
  std::vector<std::vector<std::string>> cold;
  std::vector<std::string> cold_faults;  ///< parallel to `cold`
};
inline constexpr int kServeWarmClients = 3;
/// Every kServeColdStride-th fault of the shuffled list also goes to
/// the cold client; sized so it finishes close to the warm clients.
inline constexpr int kServeColdStride = 6;
ServeInputs serve_inputs(std::uint64_t seed);

/// Request lines shared by the serve workload and its tests.
std::string open_line(const std::string& session);
std::string load_line(const std::string& session, const std::string& dimacs);
std::string op_line(const char* op, const std::string& session);

}  // namespace perfbench
