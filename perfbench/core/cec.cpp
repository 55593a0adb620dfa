// cec_mult: certified combinational equivalence checking.
//
// Each instance goes through equiv::check_equivalence with rewrite,
// Plaisted-Greenbaum encoding, structure hints and a sat::Proof, then
// gets certified: EQUIVALENT answers by sat::check_drat on the refuted
// formula (or by strash/rewrite settling the miter), NOT EQUIVALENT
// answers by replaying the counterexample on both circuits.

#include "circuit/bench_io.hpp"
#include "circuit/encoder.hpp"
#include "circuit/miter.hpp"
#include "circuit/rewrite.hpp"
#include "circuit/simulator.hpp"
#include "circuit/structural_hash.hpp"
#include "csat/hints.hpp"
#include "equiv/cec.hpp"
#include "gen.hpp"
#include "reference.hpp"
#include "sat/drat_check.hpp"
#include "sat/proof.hpp"
#include "sat/solver.hpp"
#include "workloads.hpp"

namespace perfbench {

using sateda::circuit::Circuit;
using sateda::circuit::GateType;
using sateda::circuit::NodeId;
using sateda::equiv::CecVerdict;

namespace {

struct Instance {
  std::string name;
  Circuit golden;
  Circuit revised;
  CecVerdict expected = CecVerdict::kUnknown;
};

/// What one instance's certified check produced; the traced flow must
/// reproduce it exactly.
struct Outcome {
  CecVerdict verdict = CecVerdict::kUnknown;
  std::int64_t conflicts = 0;
  bool certified = false;
  std::string why;  ///< certification failure
};

std::vector<Instance> parse_instances(const std::vector<CecCase>& cases,
                                      Tracer* tr) {
  std::vector<Instance> out;
  for (const CecCase& c : cases) {
    Instance in;
    in.name = c.name;
    {
      Scope s(tr, "circuit.parse");
      in.golden =
          sateda::circuit::read_bench_string(c.golden.bench, c.golden.name);
      in.revised =
          sateda::circuit::read_bench_string(c.revised.bench, c.revised.name);
    }
    out.push_back(std::move(in));
  }
  return out;
}

bool replays(const Instance& in, const std::vector<bool>& cex) {
  return cex.size() == in.golden.inputs().size() &&
         sateda::circuit::simulate_outputs(in.golden, cex) !=
             sateda::circuit::simulate_outputs(in.revised, cex);
}

std::string drat_failure(const sateda::sat::DratCheckResult& r) {
  if (r.ok && r.refutation) return "";
  return "DRAT certificate rejected: " + r.message;
}

/// The library entry point, then certification.
Outcome check_untraced(const Instance& in) {
  sateda::sat::Proof proof;
  sateda::equiv::CecOptions opts;
  opts.rewrite = true;
  opts.plaisted_greenbaum = true;
  opts.struct_hints = true;
  opts.proof = &proof;
  const sateda::equiv::CecResult r =
      sateda::equiv::check_equivalence(in.golden, in.revised, opts);
  Outcome o{r.verdict, r.conflicts, false, ""};
  if (r.verdict == CecVerdict::kEquivalent) {
    if (r.settled_structurally || r.pipeline_formula.num_clauses() == 0) {
      o.certified = true;  // strash or rewrite folded the miter to 0
    } else {
      o.why = drat_failure(sateda::sat::check_drat(r.pipeline_formula, proof));
      o.certified = o.why.empty();
    }
  } else if (r.verdict == CecVerdict::kNotEquivalent) {
    o.certified = replays(in, r.counterexample);
    if (!o.certified) o.why = "counterexample does not replay";
  }
  return o;
}

struct LayerCounts {
  double nodes_after_rewrite = 0;
  double clauses = 0;
  double conflicts = 0;
  double decisions = 0;
  double propagations = 0;
  double gc_runs = 0;
  double proof_additions = 0;
  double steps_checked = 0;
  double steps_skipped = 0;
};

bool folded(const Circuit& miter, CecVerdict& verdict) {
  const GateType t = miter.node(miter.outputs()[0]).type;
  if (t == GateType::kConst0) verdict = CecVerdict::kEquivalent;
  if (t == GateType::kConst1) verdict = CecVerdict::kNotEquivalent;
  return t == GateType::kConst0 || t == GateType::kConst1;
}

/// The same check rebuilt from the calls check_equivalence makes (see
/// equiv/cec.cpp), one span around each.
Outcome check_traced(const Instance& in, std::int64_t request, Tracer& tr,
                     LayerCounts& counts) {
  Scope root(&tr, "equiv.check", request);
  Outcome o;
  Circuit miter;
  {
    Scope s(&tr, "circuit.miter");
    miter = sateda::circuit::build_miter(in.golden, in.revised);
  }
  {
    Scope s(&tr, "circuit.strash");
    miter = sateda::circuit::strash(miter);
  }
  const std::vector<bool> zeros(in.golden.inputs().size(), false);
  auto settle = [&]() {
    o.certified = o.verdict == CecVerdict::kEquivalent || replays(in, zeros);
    return o;
  };
  if (folded(miter, o.verdict)) return settle();
  {
    Scope s(&tr, "circuit.rewrite");
    sateda::circuit::RewriteResult rr = sateda::circuit::rewrite(miter);
    miter = std::move(rr.circuit);
  }
  counts.nodes_after_rewrite += static_cast<double>(miter.num_nodes());
  if (folded(miter, o.verdict)) return settle();

  const std::vector<std::pair<NodeId, bool>> objectives{
      {miter.outputs()[0], true}};
  sateda::circuit::ConeEncoding enc;
  {
    Scope s(&tr, "circuit.encode");
    sateda::circuit::ConeEncodingOptions eopts;
    eopts.plaisted_greenbaum = true;
    enc = sateda::circuit::encode_objectives(miter, objectives, eopts);
  }
  counts.clauses += static_cast<double>(enc.formula.num_clauses());

  sateda::sat::Proof proof;
  sateda::sat::Solver solver{sateda::sat::SolverOptions{}};
  bool loaded = false;
  {
    Scope s(&tr, "sat.load");
    solver.set_proof_tracer(&proof);
    loaded = solver.add_formula(enc.formula);
  }
  sateda::sat::SolveResult res = sateda::sat::SolveResult::kUnsat;
  if (loaded) {
    {
      Scope s(&tr, "csat.hints");
      sateda::csat::make_structure_hints(miter, enc.node_to_var, objectives)
          .apply(solver);
    }
    Scope s(&tr, "sat.solve");
    res = solver.solve();
  }
  const sateda::sat::SolverStats& st = solver.stats();
  o.conflicts = st.conflicts;
  counts.conflicts += static_cast<double>(st.conflicts);
  counts.decisions += static_cast<double>(st.decisions);
  counts.propagations += static_cast<double>(st.propagations);
  counts.gc_runs += static_cast<double>(st.arena_gc_runs);
  for (const auto& step : proof.steps()) {
    if (!step.deletion) counts.proof_additions += 1;
  }

  if (res == sateda::sat::SolveResult::kUnsat) {
    o.verdict = CecVerdict::kEquivalent;
    Scope s(&tr, "drat.check");
    const sateda::sat::DratCheckResult check =
        sateda::sat::check_drat(enc.formula, proof);
    counts.steps_checked += static_cast<double>(check.steps_checked);
    counts.steps_skipped += static_cast<double>(check.steps_skipped);
    o.why = drat_failure(check);
    o.certified = o.why.empty();
  } else if (res == sateda::sat::SolveResult::kSat) {
    o.verdict = CecVerdict::kNotEquivalent;
    std::vector<bool> cex;
    for (NodeId i : miter.inputs()) {
      const sateda::Var v = enc.node_to_var[i];
      cex.push_back(v != sateda::kNullVar &&
                    v < static_cast<sateda::Var>(solver.model().size()) &&
                    solver.model()[v].is_true());
    }
    Scope s(&tr, "equiv.cex_replay");
    o.certified = replays(in, cex);
    if (!o.certified) o.why = "counterexample does not replay";
  }
  return o;
}

/// Untraced pass; records each outcome and checks it.
double untraced_pass(const std::vector<Instance>& inst,
                     std::vector<Outcome>& outcomes, RunResult& r) {
  const Clock::time_point t0 = Clock::now();
  outcomes.clear();
  for (const Instance& in : inst) outcomes.push_back(check_untraced(in));
  const double wall = seconds_since(t0);
  for (std::size_t i = 0; i < inst.size(); ++i) {
    const Outcome& o = outcomes[i];
    ++r.attempted;
    if (o.verdict == CecVerdict::kUnknown) {
      ++r.failed;
      continue;
    }
    if (o.verdict != inst[i].expected) {
      r.fail(inst[i].name + ": verdict " + sateda::equiv::to_string(o.verdict) +
             " contradicts exhaustive simulation");
    }
    if (!o.certified) r.fail(inst[i].name + ": " + o.why);
  }
  return wall;
}

}  // namespace

RunResult run_cec(const RunConfig& cfg) {
  RunResult r;
  const std::vector<CecCase> cases = cec_inputs(cfg.seed);

  std::vector<double> setup;
  std::vector<Instance> inst;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const Clock::time_point t0 = Clock::now();
    inst = parse_instances(cases, nullptr);
    setup.push_back(seconds_since(t0));
  }
  // Reference verdicts, untimed: exhaustive simulation where the input
  // count allows it, construction otherwise.
  for (std::size_t i = 0; i < inst.size(); ++i) {
    inst[i].expected =
        cases[i].equivalent_by_construction ||
                exhaustively_equal(inst[i].golden, inst[i].revised)
            ? CecVerdict::kEquivalent
            : CecVerdict::kNotEquivalent;
  }

  std::vector<Outcome> outcomes;
  if (!cfg.trace) {
    const std::vector<double> walls = run_passes(
        cfg.seconds, [&] { return untraced_pass(inst, outcomes, r); });
    std::vector<double> rates;
    for (double w : walls) rates.push_back(static_cast<double>(inst.size()) / w);
    r.set("wall_s", median(walls));
    r.set("setup_s", median(setup));
    r.set("queries_per_s", median(rates));
    r.set("peak_rss_mb", peak_rss_mb());
    return r;
  }

  Tracer tr;
  {
    Scope s(&tr, "circuit.setup");
    parse_instances(cases, &tr);
  }
  LayerCounts counts;
  std::vector<double> untraced, traced;
  run_passes(cfg.seconds, [&] {
    const double u = untraced_pass(inst, outcomes, r);
    untraced.push_back(u);
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < inst.size(); ++i) {
      const Outcome o = check_traced(inst[i], static_cast<std::int64_t>(i),
                                     tr, counts);
      if (o.verdict != outcomes[i].verdict ||
          o.conflicts != outcomes[i].conflicts ||
          o.certified != outcomes[i].certified) {
        r.fail(inst[i].name + ": traced flow gave " +
               sateda::equiv::to_string(o.verdict) + " after " +
               std::to_string(o.conflicts) + " conflicts, untraced " +
               sateda::equiv::to_string(outcomes[i].verdict) + " after " +
               std::to_string(outcomes[i].conflicts));
      }
    }
    traced.push_back(seconds_since(t0));
    return u + traced.back();
  });

  const double passes = static_cast<double>(traced.size());
  for (const char* span :
       {"circuit.miter", "circuit.strash", "circuit.rewrite", "circuit.encode",
        "csat.hints", "sat.load", "sat.solve", "drat.check",
        "equiv.cex_replay"}) {
    const std::string name = span;
    r.set(name + "_s", tr.total_s(name) / passes);
  }
  r.set("circuit.parse_s", tr.total_s("circuit.parse"));
  r.set("circuit.nodes_after_rewrite", counts.nodes_after_rewrite / passes);
  r.set("cnf.clauses", counts.clauses / passes);
  r.set("sat.conflicts", counts.conflicts / passes);
  r.set("sat.decisions", counts.decisions / passes);
  r.set("sat.propagations", counts.propagations / passes);
  r.set("sat.arena_gc_runs", counts.gc_runs / passes);
  r.set("sat.proof_additions", counts.proof_additions / passes);
  r.set("drat.steps_checked", counts.steps_checked / passes);
  r.set("drat.steps_skipped", counts.steps_skipped / passes);
  const double steps = counts.steps_checked + counts.steps_skipped;
  r.set("drat.useful_ratio", steps > 0 ? counts.steps_checked / steps : 0.0);
  // One row per instance: its equiv.check spans, averaged over passes.
  std::vector<double> per_instance(inst.size(), 0.0);
  for (const Span& s : tr.spans()) {
    if (s.name == "equiv.check") {
      per_instance[static_cast<std::size_t>(s.request)] +=
          static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    }
  }
  for (std::size_t i = 0; i < inst.size(); ++i) {
    r.set("cec." + inst[i].name + "_s", per_instance[i] / passes);
  }
  r.set("trace.overhead_frac", (median(traced) - median(untraced)) /
                                   median(untraced));
  // The traced passes plus the traced parse of every netlist.
  double traced_total = tr.total_s("circuit.setup");
  for (double t : traced) traced_total += t;
  finish_trace(cfg, tr, traced_total, r);
  zero_unreported_layers(r);
  return r;
}

}  // namespace perfbench
