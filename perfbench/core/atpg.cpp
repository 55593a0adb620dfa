// atpg_faultlist: stuck-at test generation over a fault list.
//
// Each circuit goes through atpg::run_atpg with default options, then
// atpg::minimize_test_set, then a fault-simulation replay confirming
// that the compacted test set still detects every detected fault.

#include <optional>
#include <random>

#include "atpg/compact.hpp"
#include "atpg/engine.hpp"
#include "atpg/fault_sim.hpp"
#include "circuit/bench_io.hpp"
#include "gen.hpp"
#include "reference.hpp"
#include "workloads.hpp"

namespace perfbench {

using sateda::atpg::FaultStatus;
using sateda::circuit::Circuit;

namespace {

/// What one circuit's flow produced; the traced flow must reproduce it.
struct Outcome {
  sateda::atpg::AtpgResult atpg;
  std::vector<std::size_t> kept;
  std::string replay_error;  ///< a detected fault the kept tests miss
};

std::vector<Circuit> parse_circuits(const std::vector<Netlist>& nets,
                                    Tracer* tr) {
  std::vector<Circuit> out;
  out.reserve(nets.size());
  for (const Netlist& n : nets) {
    Scope s(tr, "circuit.parse");
    out.push_back(sateda::circuit::read_bench_string(n.bench, n.name));
  }
  return out;
}

/// Fault-simulates the kept tests, 64 per word, and returns the first
/// detected fault none of them detects ("" when all are confirmed).
std::string replay(const Circuit& c, const sateda::atpg::AtpgResult& r,
                   const std::vector<std::size_t>& kept) {
  const sateda::atpg::FaultSimulator sim(c);
  std::vector<char> confirmed(r.faults.size(), 0);
  for (std::size_t b = 0; b < kept.size(); b += 64) {
    std::vector<std::uint64_t> packed(c.inputs().size(), 0);
    const std::size_t n = std::min<std::size_t>(64, kept.size() - b);
    for (std::size_t t = 0; t < n; ++t) {
      const std::vector<bool>& test = r.tests[kept[b + t]];
      for (std::size_t i = 0; i < test.size(); ++i) {
        if (test[i]) packed[i] |= std::uint64_t{1} << t;
      }
    }
    const std::uint64_t live =
        n == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
    const std::vector<std::uint64_t> good = sim.good_values(packed);
    for (std::size_t f = 0; f < r.faults.size(); ++f) {
      if (!confirmed[f] && r.status[f] == FaultStatus::kDetected &&
          (sim.detect_mask(good, r.faults[f]) & live)) {
        confirmed[f] = 1;
      }
    }
  }
  for (std::size_t f = 0; f < r.faults.size(); ++f) {
    if (r.status[f] == FaultStatus::kDetected && !confirmed[f]) {
      return "detected fault " + sateda::atpg::to_string(r.faults[f]) +
             " is not detected by the compacted test set";
    }
  }
  return "";
}

Outcome flow_untraced(const Circuit& c) {
  Outcome o;
  o.atpg = sateda::atpg::run_atpg(c);
  o.kept = sateda::atpg::minimize_test_set(c, o.atpg.tests, o.atpg.faults).kept;
  o.replay_error = replay(c, o.atpg, o.kept);
  return o;
}

// --- the traced rebuild of run_atpg (atpg/engine.cpp) ---------------

/// run_atpg's random phase: one packed batch, keeping the lowest
/// detecting pattern per newly detected fault.
void random_batch(const sateda::atpg::FaultSimulator& sim, const Circuit& c,
                  std::mt19937_64& rng, int batch_patterns,
                  sateda::atpg::AtpgResult& r) {
  std::vector<std::uint64_t> packed(c.inputs().size());
  for (auto& w : packed) w = rng();
  const std::vector<std::uint64_t> good = sim.good_values(packed);
  std::uint64_t used_bits = 0;
  const std::uint64_t live =
      batch_patterns >= 64 ? ~std::uint64_t{0}
                           : ((std::uint64_t{1} << batch_patterns) - 1);
  for (std::size_t fi = 0; fi < r.faults.size(); ++fi) {
    if (r.status[fi] != FaultStatus::kUntested) continue;
    const std::uint64_t mask = sim.detect_mask(good, r.faults[fi]) & live;
    if (!mask) continue;
    r.status[fi] = FaultStatus::kDetected;
    ++r.stats.detected;
    ++r.stats.random_detected;
    used_bits |= mask & (~mask + 1);
  }
  for (int b = 0; b < 64; ++b) {
    if (!((used_bits >> b) & 1)) continue;
    std::vector<bool> pattern(c.inputs().size());
    for (std::size_t i = 0; i < pattern.size(); ++i) {
      pattern[i] = (packed[i] >> b) & 1;
    }
    r.tests.push_back(std::move(pattern));
  }
}

std::vector<bool> fill_pattern(const std::vector<sateda::lbool>& partial,
                               std::mt19937_64& rng) {
  std::bernoulli_distribution coin(0.5);
  std::vector<bool> full(partial.size());
  for (std::size_t i = 0; i < partial.size(); ++i) {
    full[i] = partial[i].is_undef() ? coin(rng) : partial[i].is_true();
  }
  return full;
}

Outcome flow_traced(const Circuit& c, std::int64_t request, Tracer& tr,
                    double& tpg_conflicts, double& tpg_decisions) {
  Scope root(&tr, "atpg.run", request);
  const sateda::atpg::AtpgOptions opts;
  Outcome o;
  sateda::atpg::AtpgResult& r = o.atpg;
  {
    Scope s(&tr, "atpg.collapse");
    r.faults = sateda::atpg::collapse_faults(
        c, sateda::atpg::enumerate_faults(c));
  }
  r.status.assign(r.faults.size(), FaultStatus::kUntested);
  r.stats.total_faults = static_cast<int>(r.faults.size());
  std::mt19937_64 rng(opts.seed);
  std::optional<sateda::atpg::FaultSimulator> sim;
  {
    Scope s(&tr, "atpg.random_sim");
    sim.emplace(c);
    for (int done = 0; done < opts.random_patterns; done += 64) {
      random_batch(*sim, c, rng, std::min(64, opts.random_patterns - done), r);
    }
  }
  for (std::size_t fi = 0; fi < r.faults.size(); ++fi) {
    if (r.status[fi] != FaultStatus::kUntested) continue;
    std::vector<sateda::lbool> partial;
    ++r.stats.sat_calls;
    sateda::sat::SolverStats qs;
    FaultStatus st = FaultStatus::kUntested;
    {
      Scope s(&tr, "atpg.tpg");
      st = sateda::atpg::generate_test(c, r.faults[fi], partial, opts, &qs);
    }
    r.stats.decisions += qs.decisions;
    r.stats.conflicts += qs.conflicts;
    tpg_conflicts += static_cast<double>(qs.conflicts);
    tpg_decisions += static_cast<double>(qs.decisions);
    r.status[fi] = st;
    if (st == FaultStatus::kRedundant) ++r.stats.redundant;
    if (st == FaultStatus::kAborted) ++r.stats.aborted;
    if (st != FaultStatus::kDetected) continue;
    ++r.stats.detected;
    std::vector<bool> pattern = fill_pattern(partial, rng);
    r.tests.push_back(pattern);
    Scope s(&tr, "atpg.drop_sim");
    std::vector<std::uint64_t> packed(pattern.size());
    for (std::size_t i = 0; i < pattern.size(); ++i) packed[i] = pattern[i];
    const std::vector<std::uint64_t> good = sim->good_values(packed);
    for (std::size_t fj = fi + 1; fj < r.faults.size(); ++fj) {
      if (r.status[fj] != FaultStatus::kUntested) continue;
      if (sim->detect_mask(good, r.faults[fj]) & 1) {
        r.status[fj] = FaultStatus::kDetected;
        ++r.stats.detected;
      }
    }
  }
  {
    Scope s(&tr, "atpg.compact");
    o.kept = sateda::atpg::minimize_test_set(c, r.tests, r.faults).kept;
  }
  Scope s(&tr, "atpg.replay");
  o.replay_error = replay(c, r, o.kept);
  return o;
}

bool same(const Outcome& a, const Outcome& b) {
  const sateda::atpg::AtpgStats& x = a.atpg.stats;
  const sateda::atpg::AtpgStats& y = b.atpg.stats;
  return x.total_faults == y.total_faults && x.detected == y.detected &&
         x.redundant == y.redundant && x.aborted == y.aborted &&
         x.random_detected == y.random_detected &&
         x.sat_calls == y.sat_calls && x.conflicts == y.conflicts &&
         a.atpg.tests == b.atpg.tests && a.atpg.status == b.atpg.status &&
         a.kept == b.kept;
}

double untraced_pass(const std::vector<Circuit>& circuits,
                     std::vector<Outcome>& outcomes, RunResult& r) {
  const Clock::time_point t0 = Clock::now();
  outcomes.clear();
  for (const Circuit& c : circuits) outcomes.push_back(flow_untraced(c));
  const double wall = seconds_since(t0);
  for (std::size_t i = 0; i < circuits.size(); ++i) {
    const sateda::atpg::AtpgStats& st = outcomes[i].atpg.stats;
    r.attempted += st.total_faults;
    r.failed += st.aborted;
    if (!outcomes[i].replay_error.empty()) {
      r.fail(circuits[i].name() + ": " + outcomes[i].replay_error);
    }
  }
  return wall;
}

/// Untimed: every redundant fault is refuted again by a proof-logging
/// solver on the fault-query CNF, and the proof is DRAT-checked.
void check_redundant(const std::vector<Circuit>& circuits,
                     const std::vector<Outcome>& outcomes, RunResult& r) {
  for (std::size_t i = 0; i < circuits.size(); ++i) {
    const sateda::atpg::AtpgResult& a = outcomes[i].atpg;
    for (std::size_t f = 0; f < a.faults.size(); ++f) {
      if (a.status[f] != FaultStatus::kRedundant) continue;
      const std::string why = refute_redundant_fault(circuits[i], a.faults[f]);
      if (!why.empty()) r.fail(circuits[i].name() + ": " + why);
    }
  }
}

}  // namespace

RunResult run_atpg(const RunConfig& cfg) {
  RunResult r;
  const std::vector<Netlist> nets = atpg_inputs(cfg.seed);
  std::vector<double> setup;
  std::vector<Circuit> circuits;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const Clock::time_point t0 = Clock::now();
    circuits = parse_circuits(nets, nullptr);
    setup.push_back(seconds_since(t0));
  }

  std::vector<Outcome> first, outcomes;
  auto pass = [&] {
    const double wall = untraced_pass(circuits, outcomes, r);
    if (first.empty()) {
      first = outcomes;
      check_redundant(circuits, first, r);
    } else {
      for (std::size_t i = 0; i < circuits.size(); ++i) {
        if (!same(first[i], outcomes[i])) {
          r.fail(circuits[i].name() + ": result differs between passes");
        }
      }
    }
    return wall;
  };

  if (!cfg.trace) {
    const std::vector<double> walls = run_passes(cfg.seconds, pass);
    double faults = 0;
    for (const Outcome& o : first) faults += o.atpg.stats.total_faults;
    std::vector<double> rates;
    for (double w : walls) rates.push_back(faults / w);
    r.set("wall_s", median(walls));
    r.set("setup_s", median(setup));
    r.set("queries_per_s", median(rates));
    r.set("peak_rss_mb", peak_rss_mb());
    return r;
  }

  Tracer tr;
  {
    Scope s(&tr, "circuit.setup");
    parse_circuits(nets, &tr);
  }
  std::vector<double> untraced, traced;
  double tpg_conflicts = 0, tpg_decisions = 0;
  double faults = 0, random_detected = 0, sat_calls = 0, redundant = 0,
         aborted = 0, tests = 0, kept = 0;
  run_passes(cfg.seconds, [&] {
    untraced.push_back(pass());
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < circuits.size(); ++i) {
      const Outcome o = flow_traced(circuits[i], static_cast<std::int64_t>(i),
                                    tr, tpg_conflicts, tpg_decisions);
      if (!same(o, outcomes[i])) {
        r.fail(circuits[i].name() + ": traced flow differs from run_atpg: " +
               o.atpg.stats.summary() + " vs " +
               outcomes[i].atpg.stats.summary());
      }
      const sateda::atpg::AtpgStats& st = o.atpg.stats;
      faults += st.total_faults;
      random_detected += st.random_detected;
      sat_calls += st.sat_calls;
      redundant += st.redundant;
      aborted += st.aborted;
      tests += static_cast<double>(o.atpg.tests.size());
      kept += static_cast<double>(o.kept.size());
    }
    traced.push_back(seconds_since(t0));
    return untraced.back() + traced.back();
  });

  const double passes = static_cast<double>(traced.size());
  for (const char* span : {"atpg.collapse", "atpg.random_sim", "atpg.drop_sim",
                           "atpg.tpg", "atpg.compact", "atpg.replay"}) {
    const std::string name = span;
    r.set(name + "_s", tr.total_s(name) / passes);
  }
  const std::vector<double> tpg = tr.durations_ms("atpg.tpg");
  r.set("atpg.tpg_p50_ms", percentile(tpg, 0.50));
  r.set("atpg.tpg_p90_ms", percentile(tpg, 0.90));
  r.set("circuit.parse_s", tr.total_s("circuit.parse"));
  r.set("atpg.faults", faults / passes);
  r.set("atpg.random_detected", random_detected / passes);
  r.set("atpg.sat_calls", sat_calls / passes);
  r.set("atpg.tpg_conflicts", tpg_conflicts / passes);
  r.set("atpg.redundant", redundant / passes);
  r.set("atpg.aborted", aborted / passes);
  r.set("atpg.tests", tests / passes);
  r.set("atpg.tests_kept", kept / passes);
  r.set("sat.conflicts", tpg_conflicts / passes);
  r.set("sat.decisions", tpg_decisions / passes);
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
