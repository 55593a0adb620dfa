// The benchmark's own tests: seeded inputs, the percentile rule, the
// metric catalog against BENCHMARK.json, and self-time accounting.

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>

#include "circuit/bench_io.hpp"
#include "gen.hpp"
#include "metrics.hpp"
#include "reference.hpp"
#include "serve/json.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

std::vector<std::string> serve_lines(const ServeInputs& in) {
  std::vector<std::string> out = {in.circuit.bench, in.base_dimacs};
  for (const ServeClient& c : in.warm) {
    for (const ServeFault& f : c.faults) {
      out.insert(out.end(), {f.fault, f.warm_add, f.warm_solve});
    }
  }
  for (const auto& q : in.cold) out.insert(out.end(), q.begin(), q.end());
  return out;
}

std::vector<std::string> cec_texts(const std::vector<CecCase>& cases) {
  std::vector<std::string> out;
  for (const CecCase& c : cases) {
    out.insert(out.end(), {c.name, c.golden.bench, c.revised.bench});
  }
  return out;
}

std::vector<std::string> atpg_texts(const std::vector<Netlist>& nets) {
  std::vector<std::string> out;
  for (const Netlist& n : nets) out.insert(out.end(), {n.name, n.bench});
  return out;
}

TEST(PerfbenchInputs, SameSeedGivesByteIdenticalInputs) {
  EXPECT_EQ(cec_texts(cec_inputs(7)), cec_texts(cec_inputs(7)));
  EXPECT_EQ(atpg_texts(atpg_inputs(7)), atpg_texts(atpg_inputs(7)));
  EXPECT_EQ(serve_lines(serve_inputs(7)), serve_lines(serve_inputs(7)));
}

TEST(PerfbenchInputs, OtherSeedMovesMutationSitesCircuitsAndFaultOrder) {
  const std::vector<CecCase> a = cec_inputs(1), b = cec_inputs(2);
  ASSERT_EQ(a.size(), b.size());
  int differing_mutants = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].golden.bench, b[i].golden.bench);
    if (a[i].name.rfind("mut", 0) == 0) {
      differing_mutants += a[i].revised.bench != b[i].revised.bench;
    } else {
      EXPECT_EQ(a[i].revised.bench, b[i].revised.bench) << a[i].name;
    }
  }
  EXPECT_GE(differing_mutants, 5);

  const std::vector<Netlist> x = atpg_inputs(1), y = atpg_inputs(2);
  ASSERT_EQ(x.size(), y.size());
  EXPECT_EQ(x[0].bench, y[0].bench);  // alu64 is fixed
  int differing_circuits = 0;
  for (std::size_t i = 1; i < x.size(); ++i) {
    differing_circuits += x[i].bench != y[i].bench;
  }
  EXPECT_EQ(differing_circuits, kAtpgRandomCircuits);

  EXPECT_NE(serve_lines(serve_inputs(1)), serve_lines(serve_inputs(2)));
}

TEST(PerfbenchInputs, MutantsChangeTheFunctionAndMitersDoNot) {
  for (const CecCase& c : cec_inputs(3)) {
    if (c.equivalent_by_construction) continue;
    const auto golden = sateda::circuit::read_bench_string(c.golden.bench);
    const auto revised = sateda::circuit::read_bench_string(c.revised.bench);
    EXPECT_EQ(exhaustively_equal(golden, revised),
              c.name.rfind("mult", 0) == 0)
        << c.name;
  }
}

TEST(PerfbenchInputs, ServeTrafficCoversEveryQueryOnce) {
  const ServeInputs in = serve_inputs(5);
  std::set<std::string> warm;
  for (const ServeClient& c : in.warm) {
    for (const ServeFault& f : c.faults) EXPECT_TRUE(warm.insert(f.fault).second);
  }
  for (const std::string& f : in.cold_faults) EXPECT_EQ(warm.count(f), 1u);
  EXPECT_EQ(in.warm.size(), static_cast<std::size_t>(kServeWarmClients));
  EXPECT_GE(in.cold.size(), 20u);  // enough for a cold p50 in one pass
}

TEST(PerfbenchPercentile, RefusesFewerThanTenSamplesBeyond) {
  std::vector<double> v(19);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i);
  EXPECT_THROW(percentile(v, 0.5), std::invalid_argument);
  v.push_back(19);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 9.5);

  std::vector<double> w(999, 1.0);
  EXPECT_THROW(percentile(w, 0.99), std::invalid_argument);
  w.push_back(2.0);
  EXPECT_NO_THROW(percentile(w, 0.99));
  EXPECT_THROW(percentile(w, 1.0), std::invalid_argument);
}

TEST(PerfbenchMetrics, NamesAreValidUniqueAndWithinLimits) {
  const auto& e2e = end_to_end_metrics();
  const auto& layer = per_layer_metrics();
  EXPECT_GE(e2e.size(), 1u);
  EXPECT_LE(e2e.size(), 16u);
  EXPECT_GE(layer.size(), 1u);
  EXPECT_LE(layer.size(), 128u);
  std::set<std::string> names;
  for (const auto* list : {&e2e, &layer}) {
    for (const MetricSpec& m : *list) {
      EXPECT_TRUE(valid_metric_name(m.name)) << m.name;
      EXPECT_TRUE(names.insert(m.name).second) << "duplicate " << m.name;
    }
  }
  EXPECT_FALSE(valid_metric_name("bad name"));
  EXPECT_FALSE(valid_metric_name(".leading_dot"));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
}

TEST(PerfbenchMetrics, BenchmarkJsonListsTheCatalog) {
  std::ifstream f(PERFBENCH_ROOT "/BENCHMARK.json");
  ASSERT_TRUE(f) << "BENCHMARK.json not found";
  std::stringstream text;
  text << f.rdbuf();
  const sateda::serve::Json j = sateda::serve::Json::parse(text.str());
  auto check = [&](const char* key, const std::vector<MetricSpec>& catalog) {
    const auto& rows = j.find(key)->items();
    ASSERT_EQ(rows.size(), catalog.size()) << key;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(rows[i].find("name")->as_string(), catalog[i].name);
      EXPECT_EQ(rows[i].find("unit")->as_string(), catalog[i].unit);
    }
  };
  check("end_to_end", end_to_end_metrics());
  check("per_layer", per_layer_metrics());
  std::vector<std::string> workloads;
  for (const auto& w : j.find("workloads")->items()) {
    workloads.push_back(w.find("name")->as_string());
  }
  EXPECT_EQ(workloads, (std::vector<std::string>{"cec_mult", "atpg_faultlist",
                                                 "serve_atpg"}));
}

TEST(PerfbenchMetrics, ResultLineHasExactlyTheCatalog) {
  RunResult r;
  r.attempted = 3;
  for (const MetricSpec& m : end_to_end_metrics()) r.set(m.name, 1.5);
  const sateda::serve::Json j =
      sateda::serve::Json::parse(result_json(r, /*trace=*/false));
  std::vector<std::string> keys;
  for (const auto& [k, v] : j.members()) keys.push_back(k);
  EXPECT_EQ(keys, (std::vector<std::string>{"correct", "attempted", "failed",
                                            "metrics"}));
  EXPECT_EQ(j.find("metrics")->members().size(), end_to_end_metrics().size());
  r.set("not_in_catalog", 1.0);
  EXPECT_THROW(result_json(r, false), std::logic_error);
}

TEST(PerfbenchTrace, SelfTimeSubtractsChildren) {
  Tracer tr;
  const auto t0 = Tracer::Clock::now();
  const auto ms = [&](int n) { return t0 + std::chrono::milliseconds(n); };
  const int root = tr.add("equiv.check", ms(0), ms(100), -1, 0);
  tr.add("sat.solve", ms(10), ms(70), root, 0);
  tr.add("drat.check", ms(70), ms(90), root, 0);
  const auto self = tr.self_time_by_layer();
  EXPECT_NEAR(self.at("equiv"), 0.020, 1e-9);
  EXPECT_NEAR(self.at("sat"), 0.060, 1e-9);
  EXPECT_NEAR(self.at("drat"), 0.020, 1e-9);
  EXPECT_EQ(layer_of("circuit.parse"), "circuit");
}

}  // namespace
}  // namespace perfbench
