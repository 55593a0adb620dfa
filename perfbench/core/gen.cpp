#include "gen.hpp"

#include <random>
#include <sstream>
#include <utility>

#include "atpg/fault.hpp"
#include "atpg/fault_cnf.hpp"
#include "bench_util.hpp"
#include "circuit/bench_io.hpp"
#include "circuit/encoder.hpp"
#include "circuit/generators.hpp"
#include "cnf/dimacs.hpp"
#include "reference.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"

namespace perfbench {

using sateda::circuit::Circuit;
using sateda::circuit::GateType;
using sateda::circuit::NodeId;
using sateda::serve::Json;

namespace {

/// Uniform draw in [0, n) from the raw engine output, which the
/// standard fixes for mt19937_64 (unlike its distributions).
std::size_t draw(std::mt19937_64& rng, std::size_t n) {
  return static_cast<std::size_t>(rng() % n);
}

Netlist to_netlist(const std::string& name, const Circuit& c) {
  return {name, sateda::circuit::to_bench_string(c)};
}

bool is_binary(GateType t) {
  switch (t) {
    case GateType::kAnd:
    case GateType::kNand:
    case GateType::kOr:
    case GateType::kNor:
    case GateType::kXor:
    case GateType::kXnor:
      return true;
    default:
      return false;
  }
}

/// Copy of \p src with gate \p site's type replaced by \p type.
Circuit with_gate_type(const Circuit& src, NodeId site, GateType type) {
  Circuit out(src.name() + "_mut");
  for (NodeId id = 0; id < static_cast<NodeId>(src.num_nodes()); ++id) {
    const sateda::circuit::Node& n = src.node(id);
    switch (n.type) {
      case GateType::kInput:
        out.add_input(n.name);
        break;
      case GateType::kConst0:
      case GateType::kConst1:
        out.add_const(n.type == GateType::kConst1, n.name);
        break;
      default:
        // Ids carry over one to one: nodes are appended in id order.
        out.add_gate(id == site ? type : n.type, n.fanins, n.name);
    }
  }
  for (std::size_t i = 0; i < src.outputs().size(); ++i) {
    out.mark_output(src.outputs()[i], src.output_name(i));
  }
  return out;
}

/// A single-gate mutant of \p revised that differs from \p golden on
/// some input: a binary gate swaps to another binary type, NOT and BUF
/// swap with each other.
Circuit mutant(const Circuit& golden, const Circuit& revised,
               std::mt19937_64& rng) {
  std::vector<NodeId> sites;
  for (NodeId id = 0; id < static_cast<NodeId>(revised.num_nodes()); ++id) {
    const GateType t = revised.node(id).type;
    if (is_binary(t) || t == GateType::kNot || t == GateType::kBuf) {
      sites.push_back(id);
    }
  }
  static constexpr GateType kBinary[] = {GateType::kAnd, GateType::kNand,
                                         GateType::kOr,  GateType::kNor,
                                         GateType::kXor, GateType::kXnor};
  while (true) {
    const NodeId site = sites[draw(rng, sites.size())];
    const GateType old = revised.node(site).type;
    GateType type = GateType::kBuf;
    if (old == GateType::kBuf) {
      type = GateType::kNot;
    } else if (old != GateType::kNot) {
      do {
        type = kBinary[draw(rng, std::size(kBinary))];
      } while (type == old);
    }
    Circuit m = with_gate_type(revised, site, type);
    if (!exhaustively_equal(golden, m)) return m;
  }
}

Json request(const char* op, const std::string& session) {
  Json r = Json::object();
  r.set("op", op);
  r.set("session", session);
  return r;
}

Json clause_array(const sateda::CnfFormula& f) {
  Json rows = Json::array();
  for (const sateda::Clause& cl : f) {
    Json row = Json::array();
    for (sateda::Lit l : cl) row.push_back(sateda::serve::to_dimacs(l));
    rows.push_back(std::move(row));
  }
  return rows;
}

std::string solve_line(const std::string& session, const std::string& id,
                       const std::vector<sateda::Lit>& assumptions) {
  Json solve = request("solve", session);
  solve.set("id", id);
  Json assume = Json::array();
  for (sateda::Lit a : assumptions) {
    assume.push_back(sateda::serve::to_dimacs(a));
  }
  solve.set("assume", std::move(assume));
  return solve.dump();
}

}  // namespace

std::string open_line(const std::string& session) {
  return request("open", session).dump();
}

std::string load_line(const std::string& session, const std::string& dimacs) {
  Json r = request("load", session);
  r.set("dimacs", dimacs);
  return r.dump();
}

std::string op_line(const char* op, const std::string& session) {
  return request(op, session).dump();
}

std::vector<CecCase> cec_inputs(std::uint64_t seed) {
  std::mt19937_64 rng(seed ^ 0x63656321ULL);
  std::vector<CecCase> cases;
  for (int n = 5; n <= 7; ++n) {
    const Circuit golden = sateda::circuit::array_multiplier(n);
    const Circuit swapped = sateda::benchutil::swapped_multiplier(n);
    const std::string tag = "mult" + std::to_string(n);
    cases.push_back({tag, to_netlist(tag + "_ab", golden),
                     to_netlist(tag + "_ba", swapped), false});
    for (const char* suffix : {"a", "b"}) {
      const std::string name = "mut" + std::to_string(n) + suffix;
      cases.push_back({name, to_netlist(name + "_ab", golden),
                       to_netlist(name + "_ba", mutant(golden, swapped, rng)),
                       false});
    }
  }
  cases.push_back({"adder64",
                   to_netlist("rca64", sateda::circuit::ripple_carry_adder(64)),
                   to_netlist("nor64", sateda::benchutil::resynthesized_adder(64)),
                   true});
  return cases;
}

std::vector<Netlist> atpg_inputs(std::uint64_t seed) {
  std::mt19937_64 rng(seed ^ 0x61747067ULL);
  std::vector<Netlist> out;
  out.push_back(to_netlist("alu64", sateda::circuit::alu(64)));
  for (int i = 0; i < kAtpgRandomCircuits; ++i) {
    // Small circuits keep each redundancy proof short; many of them
    // keep the run's total steady from one seed to the next.
    out.push_back(to_netlist("rand" + std::to_string(i),
                             sateda::circuit::random_circuit(12, 64, rng())));
  }
  return out;
}

ServeInputs serve_inputs(std::uint64_t seed) {
  ServeInputs in;
  in.circuit = to_netlist("alu32", sateda::circuit::alu(32));
  const Circuit c =
      sateda::circuit::read_bench_string(in.circuit.bench, in.circuit.name);
  const sateda::CnfFormula base = sateda::circuit::encode_circuit(c);
  std::ostringstream dimacs;
  sateda::write_dimacs(dimacs, base, "good-circuit encoding of alu32");
  in.base_dimacs = dimacs.str();

  std::vector<sateda::atpg::Fault> faults = sateda::atpg::collapse_faults(
      c, sateda::atpg::enumerate_faults(c));
  std::mt19937_64 rng(seed ^ 0x73657276ULL);
  for (std::size_t i = faults.size(); i > 1; --i) {
    std::swap(faults[i - 1], faults[draw(rng, i)]);
  }

  const sateda::Var base_vars = static_cast<sateda::Var>(base.num_vars());
  std::vector<sateda::Var> next_free(kServeWarmClients, base_vars);
  for (int k = 0; k < kServeWarmClients; ++k) {
    in.warm.push_back({"warm-" + std::to_string(k), {}});
  }
  std::size_t dealt = 0;
  for (const sateda::atpg::Fault& f : faults) {
    const std::string name = sateda::atpg::to_string(f);
    // A fresh session holds only the base encoding: the query's
    // variables start right after it.
    const sateda::atpg::FaultQueryCnf cold =
        sateda::atpg::encode_fault_query(c, f, base_vars);
    if (cold.trivially_redundant) {
      in.trivially_redundant.push_back(name);
      continue;
    }
    // In a warm session push() takes the next free variable as the
    // epoch selector and the query allocates after it (the allocation
    // guarantee documented in sat/session.hpp).
    const std::size_t k = dealt % kServeWarmClients;
    ServeClient& client = in.warm[k];
    const sateda::atpg::FaultQueryCnf warm =
        sateda::atpg::encode_fault_query(c, f, next_free[k] + 1);
    next_free[k] = warm.next_var;
    Json add = request("add", client.session);
    add.set("clauses", clause_array(warm.clauses));
    client.faults.push_back(
        {name, add.dump(), solve_line(client.session, name, warm.assumptions)});

    if (dealt % kServeColdStride == 0) {
      // Distinct names within a pass: a closed session's name is free
      // again only once the server has erased it, after its reply.
      const std::string session = "cold-" + std::to_string(in.cold.size());
      Json cold_add = request("add", session);
      cold_add.set("clauses", clause_array(cold.clauses));
      in.cold.push_back({open_line(session),
                         load_line(session, in.base_dimacs), cold_add.dump(),
                         solve_line(session, name, cold.assumptions),
                         op_line("close", session)});
      in.cold_faults.push_back(name);
    }
    ++dealt;
  }
  return in;
}

}  // namespace perfbench
