/// \file workloads.hpp
/// \brief The three workloads.  Each one runs in its own process, so
///        peak_rss_mb is that workload's own.
///
/// Untraced (`cfg.trace == false`): set up several times and keep the
/// median set-up time, then run whole passes through the library entry
/// points until `cfg.seconds` of pass time have accumulated, checking
/// every verdict against its reference.  Traced: alternate an untraced
/// pass with a pass that rebuilds the same flow from the same public
/// calls, one span around each call; the rebuilt flow must reproduce
/// the untraced verdicts and counters exactly.
#pragma once

#include <functional>
#include <string>

#include "metrics.hpp"
#include "trace.hpp"

namespace perfbench {

RunResult run_cec(const RunConfig& cfg);
RunResult run_atpg(const RunConfig& cfg);
RunResult run_serve(const RunConfig& cfg);

/// Set-up repetitions whose median is setup_s.
inline constexpr int kSetupReps = 21;

/// Calls \p pass until the pass times (its return values, in seconds)
/// add up to \p seconds; at least once.  Returns the pass times.
std::vector<double> run_passes(double seconds,
                               const std::function<double()>& pass);

/// Writes the traced run's Chrome trace and prints its self-time table;
/// fills trace.spans and the self.<layer>_share rows of \p r, each a
/// layer's self time over \p traced_s, the time the spans cover.
void finish_trace(const RunConfig& cfg, const Tracer& tracer,
                  double traced_s, RunResult& r);

/// Sets every per-layer metric not yet reported to 0: the workload
/// never enters that layer.
void zero_unreported_layers(RunResult& r);

}  // namespace perfbench
