#include "reference.hpp"

#include <cstdlib>
#include <stdexcept>

#include "atpg/fault_cnf.hpp"
#include "circuit/encoder.hpp"
#include "circuit/simulator.hpp"
#include "sat/drat_check.hpp"
#include "sat/proof.hpp"
#include "sat/solver.hpp"

namespace perfbench {

using sateda::circuit::Circuit;

bool exhaustively_equal(const Circuit& a, const Circuit& b) {
  const std::size_t k = a.inputs().size();
  if (k != b.inputs().size() || a.outputs().size() != b.outputs().size()) {
    throw std::invalid_argument("exhaustively_equal: interfaces differ");
  }
  if (k > 16) {
    throw std::invalid_argument("exhaustively_equal: more than 16 inputs");
  }
  const std::uint64_t patterns = std::uint64_t{1} << k;
  std::vector<std::uint64_t> words(k);
  for (std::uint64_t base = 0; base < patterns; base += 64) {
    for (std::size_t i = 0; i < k; ++i) {
      std::uint64_t w = 0;
      for (std::uint64_t bit = 0; bit < 64; ++bit) {
        w |= (((base + bit) >> i) & 1) << bit;
      }
      words[i] = w;
    }
    const std::uint64_t live =
        patterns - base >= 64 ? ~std::uint64_t{0}
                              : (std::uint64_t{1} << (patterns - base)) - 1;
    const auto va = sateda::circuit::simulate_words(a, words);
    const auto vb = sateda::circuit::simulate_words(b, words);
    for (std::size_t o = 0; o < a.outputs().size(); ++o) {
      if ((va[a.outputs()[o]] ^ vb[b.outputs()[o]]) & live) return false;
    }
  }
  return true;
}

bool model_satisfies(const sateda::CnfFormula& f,
                     const std::vector<std::int64_t>& model) {
  // value[v]: 1 true, -1 false, 0 unassigned
  std::vector<signed char> value(static_cast<std::size_t>(f.num_vars()) + 1, 0);
  for (std::int64_t lit : model) {
    const std::size_t v = static_cast<std::size_t>(std::llabs(lit));
    if (v >= value.size()) value.resize(v + 1, 0);
    value[v] = lit > 0 ? 1 : -1;
  }
  for (const sateda::Clause& cl : f) {
    bool sat = false;
    for (sateda::Lit l : cl) {
      const std::size_t v = static_cast<std::size_t>(l.var()) + 1;
      if (v < value.size() && value[v] == (l.negative() ? -1 : 1)) {
        sat = true;
        break;
      }
    }
    if (!sat) return false;
  }
  return true;
}

std::string refute_redundant_fault(const Circuit& c,
                                   const sateda::atpg::Fault& f) {
  sateda::CnfFormula formula = sateda::circuit::encode_circuit(c);
  const sateda::atpg::FaultQueryCnf q = sateda::atpg::encode_fault_query(
      c, f, static_cast<sateda::Var>(formula.num_vars()));
  if (q.trivially_redundant) return "";  // the cone reaches no output
  for (const sateda::Clause& cl : q.clauses) formula.add_clause(cl);
  for (sateda::Lit a : q.assumptions) formula.add_unit(a);
  formula.ensure_var(q.next_var - 1);

  sateda::sat::Proof proof;
  sateda::sat::Solver solver;
  solver.set_proof_tracer(&proof);
  if (solver.add_formula(formula) &&
      solver.solve() != sateda::sat::SolveResult::kUnsat) {
    return "fault " + sateda::atpg::to_string(f) +
           " reported redundant but the reference solver found a test";
  }
  const sateda::sat::DratCheckResult check =
      sateda::sat::check_drat(formula, proof);
  if (!check.ok || !check.refutation) {
    return "DRAT check of redundant fault " + sateda::atpg::to_string(f) +
           " failed: " + check.message;
  }
  return "";
}

}  // namespace perfbench
