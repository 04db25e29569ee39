// Drawing the simulated-network fault overlay.
//
// The simulator (sim/simulator.hpp) realizes the paper's model: every
// token crosses every layer at its planned time and the liveness property
// of Section 2.2 holds by construction. Its two interpreters also take a
// SimFaults overlay that deliberately breaks that property:
//
//   * lost tokens cross a prefix of their planned hops (toggling the
//     balancers they pass) and then vanish — their remaining steps are
//     removed from the step sequence, their process slot frees at the
//     drop time;
//   * stuck balancers never advance their round-robin position — every
//     token leaves through the frozen port;
//   * crashed processes lose one token mid-traversal and never issue the
//     later ones.
//
// This header draws that overlay from a FaultPlan. With an empty overlay
// the interpreters are step-for-step identical to their pristine runs
// (guarded by tests/fault_test.cpp and tests/wave_test.cpp).
#pragma once

#include <cstdint>

#include "core/topology.hpp"
#include "fault/fault.hpp"
#include "sim/simulator.hpp"
#include "sim/timed_execution.hpp"

namespace cn::fault {

/// Draws a concrete overlay for `exec` from the plan's fault stream.
/// Draw order is fixed (balancers ascending, then processes ascending,
/// then tokens in plan order) so a (plan, run_seed) pair replays
/// identically at any thread count.
SimFaults draw_sim_faults(const Network& net, const TimedExecution& exec,
                          const FaultPlan& plan, std::uint64_t run_seed);

}  // namespace cn::fault
