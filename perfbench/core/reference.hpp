/// \file reference.hpp
/// \brief Reference answers that do not come from the SAT solver under
///        test, and the certificate checks run on its answers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "atpg/fault.hpp"
#include "circuit/netlist.hpp"
#include "cnf/formula.hpp"

namespace perfbench {

/// Exhaustive bit-parallel simulation over every input pattern: true
/// iff \p a and \p b agree on every output.  Both must have the same
/// interface and at most 16 inputs.
bool exhaustively_equal(const sateda::circuit::Circuit& a,
                        const sateda::circuit::Circuit& b);

/// True iff the DIMACS-literal model (true literals; absent variables
/// count as unassigned) satisfies every clause of \p f.
bool model_satisfies(const sateda::CnfFormula& f,
                     const std::vector<std::int64_t>& model);

/// Re-refutes redundant fault \p f with a fresh proof-logging solver on
/// the good-circuit encoding plus atpg::encode_fault_query, then checks
/// the proof with sat::check_drat.  Returns "" on success, otherwise
/// what failed.
std::string refute_redundant_fault(const sateda::circuit::Circuit& c,
                                   const sateda::atpg::Fault& f);

}  // namespace perfbench
