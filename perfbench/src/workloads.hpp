// The benchmark's workloads.  Each call runs one repetition from scratch
// (fresh simulation, fresh topology) and reports it; the runner in
// main.cpp repeats it and summarises the calibrated host clock.
#pragma once

#include "harness.hpp"

namespace perfbench {

/// The paper's §IV-B blast over one dedicated-QP stream pair.
RepResult RunStreamBulk(const RepConfig& config);

/// 16 Ki open-loop KV clients multiplexed over one width-8 shared-QP pool.
RepResult RunRpcMux(const RepConfig& config);

/// 256 open-loop KV clients on dedicated QPs, admitted through the engine
/// Acceptor and served from the ProgressEngine.
RepResult RunRpcEngine(const RepConfig& config);

}  // namespace perfbench
