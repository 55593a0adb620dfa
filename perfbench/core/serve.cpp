// serve_atpg: a closed loop of four clients against an in-process
// serve::Server with two workers, over alu(32)'s fault queries.
//
// One client thread plays all four clients.  Three warm clients each
// open a session, load the good-circuit CNF and walk their share of
// the faults with push/add/solve/pop; one cold client answers every
// kServeColdStride-th fault from scratch: open, load, add, solve,
// close.  A client sends one fault's requests together (the server
// runs a session's requests in order) and sends the next fault's only
// once all their replies have arrived: real callers wait for their
// answer.  A pass ends when all four have finished their lists.

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <map>
#include <set>

#include "atpg/engine.hpp"
#include "circuit/bench_io.hpp"
#include "cnf/dimacs.hpp"
#include "gen.hpp"
#include "reference.hpp"
#include "sat/session.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "support/mutex.hpp"
#include "workloads.hpp"

namespace perfbench {

using sateda::serve::Json;

namespace {

inline constexpr int kWorkers = 2;

/// One client's request lines for a pass, with which of them are the
/// solves (and of which fault), in batches sent together.
struct Script {
  std::vector<std::string> lines;
  std::vector<int> fault;       ///< per line: index into Query list, or -1
  std::vector<char> ends_batch;  ///< per line: last of its batch
  bool cold = false;

  void add(std::string line, int query = -1) {
    lines.push_back(std::move(line));
    fault.push_back(query);
    ends_batch.push_back(0);
  }
  void end_batch() { ends_batch.back() = 1; }
};

/// A fault query as the server sees it, for model replay.
struct Query {
  std::string fault;
  sateda::CnfFormula clauses;        ///< query clauses (session numbering)
  std::vector<std::int64_t> assume;  ///< DIMACS assumption literals
};

struct Exchange {
  int line = 0;
  Clock::time_point sent, received;
  std::string reply;
};

Query parse_query(const std::string& fault, const std::string& add_line,
                  const std::string& solve_line) {
  Query q;
  q.fault = fault;
  const Json add = Json::parse(add_line);
  for (const Json& row : add.find("clauses")->items()) {
    q.clauses.add_clause(sateda::serve::parse_dimacs_lits(row));
  }
  const Json solve = Json::parse(solve_line);
  for (const Json& a : solve.find("assume")->items()) {
    q.assume.push_back(a.as_int64());
  }
  return q;
}

struct Traffic {
  std::vector<Script> scripts;  ///< warm clients, then the cold client
  std::vector<Query> queries;
};

Traffic build_traffic(const ServeInputs& in) {
  Traffic t;
  for (const ServeClient& c : in.warm) {
    Script s;
    s.add(open_line(c.session));
    s.add(load_line(c.session, in.base_dimacs));
    s.end_batch();
    for (const ServeFault& f : c.faults) {
      const int q = static_cast<int>(t.queries.size());
      t.queries.push_back(parse_query(f.fault, f.warm_add, f.warm_solve));
      s.add(op_line("push", c.session));
      s.add(f.warm_add);
      s.add(f.warm_solve, q);
      s.add(op_line("pop", c.session));
      s.end_batch();
    }
    s.add(op_line("close", c.session));
    s.end_batch();
    t.scripts.push_back(std::move(s));
  }
  Script cold;
  cold.cold = true;
  for (std::size_t i = 0; i < in.cold.size(); ++i) {
    const std::vector<std::string>& lines = in.cold[i];  // open load add solve close
    const int q = static_cast<int>(t.queries.size());
    t.queries.push_back(parse_query(in.cold_faults[i], lines[2], lines[3]));
    for (std::size_t k = 0; k < lines.size(); ++k) {
      cold.add(lines[k], k == 3 ? q : -1);
    }
    cold.end_batch();
  }
  t.scripts.push_back(std::move(cold));
  return t;
}

/// Runs every script once as a closed loop; returns the pass time.
double closed_loop(sateda::serve::Server& server,
                   const std::vector<Script>& scripts,
                   std::vector<std::vector<Exchange>>& log) {
  struct Reply {
    std::size_t client = 0;
    Clock::time_point at;
    std::string text;
  };
  sateda::Mutex mu;
  sateda::CondVar arrived;
  std::deque<Reply> inbox;
  log.assign(scripts.size(), {});
  // Per client: replies received so far.  A client's replies arrive in
  // the order of its requests, since each batch addresses one session.
  std::vector<std::size_t> replied(scripts.size(), 0);

  auto send_batch = [&](std::size_t client) {
    const Script& s = scripts[client];
    std::size_t line = 0;
    do {
      line = log[client].size();
      log[client].push_back({static_cast<int>(line), Clock::now(), {}, {}});
      server.submit(s.lines[line], [&, client](std::string text) {
        const Clock::time_point at = Clock::now();
        sateda::MutexLock lock(&mu);
        inbox.push_back({client, at, std::move(text)});
        arrived.notify_one();
      });
    } while (!s.ends_batch[line]);
  };

  const Clock::time_point t0 = Clock::now();
  std::size_t active = 0;
  for (std::size_t c = 0; c < scripts.size(); ++c) {
    if (scripts[c].lines.empty()) continue;
    ++active;
    send_batch(c);
  }
  Clock::time_point last = t0;
  while (active > 0) {
    Reply reply;
    {
      sateda::MutexLock lock(&mu);
      while (inbox.empty()) arrived.wait(lock);
      reply = std::move(inbox.front());
      inbox.pop_front();
    }
    const std::size_t c = reply.client;
    Exchange& x = log[c][replied[c]++];
    x.received = reply.at;
    x.reply = std::move(reply.text);
    last = reply.at;
    if (replied[c] < log[c].size()) continue;  // batch still in flight
    if (log[c].size() < scripts[c].lines.size()) {
      send_batch(c);
    } else {
      --active;
    }
  }
  // drain() returns only after closed sessions are erased, so the next
  // pass may reuse their names.
  server.drain();
  return std::chrono::duration<double>(last - t0).count();
}

/// What a pass's replies say, checked against the references.
struct PassView {
  std::map<std::string, std::string> verdict;  ///< warm: fault -> result
  std::map<std::string, std::int64_t> conflicts;  ///< warm: fault -> count
  std::vector<double> warm_ms, warm_solve_ms, cold_ms, response_bytes;
  double solve_s = 0, conflicts_total = 0, decisions = 0, propagations = 0;
  std::int64_t solves = 0;
};

/// \p expected_unsat: run_atpg's redundant faults that have a query.
PassView check_pass(const Traffic& t, const sateda::CnfFormula& base,
                    const std::set<std::string>& expected_unsat,
                    const std::vector<std::vector<Exchange>>& log,
                    RunResult& r) {
  PassView v;
  std::set<std::string> warm_unsat;
  for (std::size_t c = 0; c < log.size(); ++c) {
    const Script& s = t.scripts[c];
    Clock::time_point opened{};
    for (const Exchange& x : log[c]) {
      ++r.attempted;
      const Json reply = Json::parse(x.reply);
      const Json* ok = reply.find("ok");
      if (ok == nullptr || !ok->is_bool() || !ok->as_bool()) {
        ++r.failed;
        continue;
      }
      if (s.cold && x.line % 5 == 0) opened = x.sent;
      const int qi = s.fault[static_cast<std::size_t>(x.line)];
      if (qi < 0) continue;
      const Query& q = t.queries[static_cast<std::size_t>(qi)];
      const std::string result = reply.find("result")->as_string();
      const double wall_ms = reply.find("wall_ms")->as_number();
      const Json* stats = reply.find("stats");
      ++v.solves;
      v.solve_s += wall_ms * 1e-3;
      v.conflicts_total += stats->find("conflicts")->as_number();
      v.decisions += stats->find("decisions")->as_number();
      v.propagations += stats->find("propagations")->as_number();
      v.response_bytes.push_back(static_cast<double>(x.reply.size()));
      const double ms =
          std::chrono::duration<double, std::milli>(x.received - x.sent).count();
      if (s.cold) {
        v.cold_ms.push_back(
            std::chrono::duration<double, std::milli>(x.received - opened)
                .count());
      } else {
        v.warm_ms.push_back(ms);
        v.warm_solve_ms.push_back(wall_ms);
        v.verdict[q.fault] = result;
        v.conflicts[q.fault] = stats->find("conflicts")->as_int64();
      }
      if (result == "unsat") {
        if (!s.cold) warm_unsat.insert(q.fault);
        if (expected_unsat.count(q.fault) == 0) {
          r.fail("serve: " + q.fault + " answered unsat but run_atpg detects it");
        }
      } else if (result == "sat") {
        std::vector<std::int64_t> model;
        for (const Json& l : reply.find("model")->items()) {
          model.push_back(l.as_int64());
        }
        sateda::CnfFormula units;
        for (std::int64_t a : q.assume) {
          units.add_unit(sateda::Lit(static_cast<sateda::Var>(std::llabs(a) - 1),
                                     a < 0));
        }
        if (!model_satisfies(base, model) || !model_satisfies(q.clauses, model) ||
            !model_satisfies(units, model)) {
          r.fail("serve: model for " + q.fault +
                 " does not satisfy base CNF + query + assumptions");
        }
      } else {
        ++r.failed;  // unknown
      }
    }
  }
  // The warm clients answer every query once per pass: their unsat
  // answers must be exactly the expected set.
  if (warm_unsat != expected_unsat) {
    r.fail("serve: the unsat queries differ from run_atpg's redundant faults (" +
           std::to_string(warm_unsat.size()) + " vs " +
           std::to_string(expected_unsat.size()) + ")");
  }
  return v;
}

/// Server start plus open and load of the warm sessions.
double setup_once(const Traffic& t,
                  std::unique_ptr<sateda::serve::Server>& server) {
  server.reset();
  const Clock::time_point t0 = Clock::now();
  sateda::serve::ServerOptions opts;
  opts.workers = kWorkers;
  server = std::make_unique<sateda::serve::Server>(opts);
  for (std::size_t c = 0; c + 1 < t.scripts.size(); ++c) {
    for (int k = 0; k < 2; ++k) {
      server->submit(t.scripts[c].lines[static_cast<std::size_t>(k)],
                     [](std::string) {});
    }
  }
  server->drain();
  const double s = seconds_since(t0);
  for (std::size_t c = 0; c + 1 < t.scripts.size(); ++c) {
    server->submit(t.scripts[c].lines.back(), [](std::string) {});
  }
  server->drain();
  return s;
}

std::vector<double> ms_minus(const std::vector<double>& a,
                             const std::vector<double>& b) {
  std::vector<double> out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
  return out;
}

}  // namespace

RunResult run_serve(const RunConfig& cfg) {
  RunResult r;
  const ServeInputs in = serve_inputs(cfg.seed);
  const Traffic t = build_traffic(in);
  const sateda::CnfFormula base = sateda::read_dimacs_string(in.base_dimacs);

  // Reference, untimed: run_atpg's redundant set on the same netlist.
  // Faults whose cone reaches no output get no query; they must be in
  // that set too.
  std::set<std::string> expected_unsat;
  {
    const sateda::circuit::Circuit c =
        sateda::circuit::read_bench_string(in.circuit.bench, in.circuit.name);
    const sateda::atpg::AtpgResult a = sateda::atpg::run_atpg(c);
    for (std::size_t f = 0; f < a.faults.size(); ++f) {
      if (a.status[f] == sateda::atpg::FaultStatus::kRedundant) {
        expected_unsat.insert(sateda::atpg::to_string(a.faults[f]));
      }
    }
    for (const std::string& f : in.trivially_redundant) {
      if (expected_unsat.erase(f) == 0) {
        r.fail("serve: " + f + " has no fault cone yet run_atpg detects it");
      }
    }
  }

  std::vector<double> setup;
  std::unique_ptr<sateda::serve::Server> server;
  for (int rep = 0; rep < kSetupReps; ++rep) setup.push_back(setup_once(t, server));

  std::vector<std::vector<Exchange>> log;
  std::vector<PassView> views;
  auto pass = [&] {
    const double wall = closed_loop(*server, t.scripts, log);
    views.push_back(check_pass(t, base, expected_unsat, log, r));
    if (views.size() > 1 && (views.back().verdict != views.front().verdict)) {
      r.fail("serve: verdicts differ between passes");
    }
    return wall;
  };

  if (!cfg.trace) {
    const std::vector<double> walls = run_passes(cfg.seconds, pass);
    std::vector<double> rates;
    for (std::size_t i = 0; i < walls.size(); ++i) {
      rates.push_back(static_cast<double>(views[i].solves) / walls[i]);
    }
    r.set("wall_s", median(walls));
    r.set("setup_s", median(setup));
    r.set("queries_per_s", median(rates));
    r.set("peak_rss_mb", peak_rss_mb());
    return r;
  }

  // Traced: the same loop, recorded as spans.  Per client and batch a
  // serve.batch span from the first submit to the last reply.  Inside
  // it one span per request: the server answers a session's requests
  // in order, so a request's span runs from the later of its submit
  // and the previous reply to its own reply.  Inside each solve, the
  // server-reported solve time as a sat.solve span ending at the reply.
  Tracer tr;
  std::vector<double> untraced, traced;
  PassView all;
  run_passes(cfg.seconds, [&] {
    untraced.push_back(pass());
    const PassView reference = views.back();
    traced.push_back(pass());
    const PassView& v = views.back();
    if (v.verdict != reference.verdict || v.conflicts != reference.conflicts) {
      r.fail("serve: traced pass differs from the untraced pass");
    }
    for (std::size_t c = 0; c < log.size(); ++c) {
      const Script& s = t.scripts[c];
      const int track = static_cast<int>(c);
      for (std::size_t first = 0; first < log[c].size();) {
        std::size_t last = first;
        while (!s.ends_batch[last]) ++last;
        int query = -1;
        for (std::size_t i = first; i <= last; ++i) query = std::max(query, s.fault[i]);
        const int batch = tr.add("serve.batch", log[c][first].sent,
                                 log[c][last].received, -1, query, track);
        Clock::time_point from = log[c][first].sent;
        for (std::size_t i = first; i <= last; ++i) {
          const Exchange& x = log[c][i];
          from = std::max(from, x.sent);
          const std::string op =
              Json::parse(s.lines[i]).find("op")->as_string();
          const int span = tr.add("serve." + op, from, x.received, batch, query,
                                  track);
          if (s.fault[i] >= 0) {
            const double wall_ms =
                Json::parse(x.reply).find("wall_ms")->as_number();
            const auto solve = std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double, std::milli>(wall_ms));
            tr.add("sat.solve", std::max(from, x.received - solve), x.received,
                   span, query, track);
          }
          from = x.received;
        }
        first = last + 1;
      }
    }
    auto append = [](std::vector<double>& to, const std::vector<double>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    append(all.warm_ms, v.warm_ms);
    append(all.warm_solve_ms, v.warm_solve_ms);
    append(all.cold_ms, v.cold_ms);
    append(all.response_bytes, v.response_bytes);
    all.solve_s += v.solve_s;
    all.conflicts_total += v.conflicts_total;
    all.decisions += v.decisions;
    all.propagations += v.propagations;
    return untraced.back() + traced.back();
  });
  const double passes = static_cast<double>(traced.size());

  r.set("latency_p50_ms", percentile(all.warm_ms, 0.50));
  r.set("latency_p99_ms", percentile(all.warm_ms, 0.99));
  r.set("cold_latency_p50_ms", percentile(all.cold_ms, 0.50));
  r.set("serve.solve_ms_p50", percentile(all.warm_solve_ms, 0.50));
  const std::vector<double> wait = ms_minus(all.warm_ms, all.warm_solve_ms);
  r.set("serve.queue_wait_ms_p50", percentile(wait, 0.50));
  r.set("serve.queue_wait_ms_p99", percentile(wait, 0.99));
  double bytes = 0;
  for (double b : all.response_bytes) bytes += b;
  r.set("serve.response_bytes_mean",
        bytes / static_cast<double>(all.response_bytes.size()));
  r.set("sat.solve_s", all.solve_s / passes);
  r.set("sat.conflicts", all.conflicts_total / passes);
  r.set("sat.decisions", all.decisions / passes);
  r.set("sat.propagations", all.propagations / passes);

  // Parsing costs on the run's own payloads, timed outside the server.
  {
    std::size_t lines = 0;
    const Clock::time_point t0 = Clock::now();
    for (const Script& s : t.scripts) {
      for (const std::string& line : s.lines) {
        (void)Json::parse(line);
        ++lines;
      }
    }
    r.set("serve.json_parse_us",
          seconds_since(t0) * 1e6 / static_cast<double>(lines));
    std::vector<double> dimacs;
    for (int rep = 0; rep < kSetupReps; ++rep) {
      const Clock::time_point t1 = Clock::now();
      (void)sateda::read_dimacs_string(in.base_dimacs);
      dimacs.push_back(seconds_since(t1) * 1e3);
    }
    r.set("cnf.dimacs_parse_ms", median(dimacs));
  }

  // One warm stream straight through sat::SolverSession, no server.
  {
    sateda::sat::SolverSession session;
    if (!session.add_formula(base)) r.fail("session: base CNF rejected");
    std::vector<double> query_ms;
    double conflicts = 0, propagations = 0;
    const Script& s = t.scripts.front();
    for (std::size_t i = 0; i < s.lines.size(); ++i) {
      const int qi = s.fault[i];
      if (qi < 0) continue;
      const Query& q = t.queries[static_cast<std::size_t>(qi)];
      session.push();
      for (const sateda::Clause& cl : q.clauses) {
        (void)session.add_clause(std::vector<sateda::Lit>(cl.begin(), cl.end()));
      }
      std::vector<sateda::Lit> assume;
      for (std::int64_t a : q.assume) {
        assume.emplace_back(static_cast<sateda::Var>(std::llabs(a) - 1), a < 0);
      }
      const Clock::time_point t0 = Clock::now();
      const sateda::sat::QueryResult qr = session.query(assume);
      query_ms.push_back(seconds_since(t0) * 1e3);
      conflicts += static_cast<double>(qr.stats.conflicts);
      propagations += static_cast<double>(qr.stats.propagations);
      const auto it = views.front().verdict.find(q.fault);
      const std::string result =
          qr.result == sateda::sat::SolveResult::kSat ? "sat" : "unsat";
      if (it == views.front().verdict.end() || it->second != result) {
        r.fail("session: " + q.fault + " differs from the served answer");
      }
      if (session.pop() < 0) r.fail("session: unmatched pop");
    }
    r.set("session.query_ms_p50", percentile(query_ms, 0.50));
    r.set("session.conflicts", conflicts);
    r.set("session.propagations", propagations);
  }

  r.set("trace.overhead_frac", (median(traced) - median(untraced)) /
                                   median(untraced));
  // Client-seconds: in a closed loop every client always has a request
  // outstanding, so the request spans cover the traced passes once per
  // client.
  double traced_total = 0;
  for (double x : traced) traced_total += x;
  finish_trace(cfg, tr, traced_total * static_cast<double>(t.scripts.size()),
               r);
  zero_unreported_layers(r);
  return r;
}

}  // namespace perfbench
