// Fault-degraded interpretation of timed executions.
//
// The pristine simulator (sim/simulator.hpp) realizes the paper's model:
// every token crosses every layer at its planned time and the liveness
// property of Section 2.2 holds by construction. simulate_faulted()
// interprets the SAME TimedExecution under a SimFaults overlay that
// deliberately breaks that property:
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
// With an empty overlay the interpreter is step-for-step identical to
// simulate(): same event order, same balancer/counter semantics, same
// trace fields (guarded by tests/fault_test.cpp differential tests).
// The scalar interpreter deliberately walks the Network graph instead of
// the compiled routing tables: the fast path stays untouched by the
// fault layer. The wave interpreter below is the level-synchronous
// execution of the same semantics (tests/wave_test.cpp holds the two
// byte-identical), routing over the compiled tables but keeping the
// explicit per-balancer positions stuck faults require.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/topology.hpp"
#include "fault/fault.hpp"
#include "sim/simulator.hpp"
#include "sim/timed_execution.hpp"
#include "trace/sink.hpp"
#include "trace/trace.hpp"

namespace cn::fault {

/// Hop sentinel: the token completes its traversal.
inline constexpr std::uint32_t kCompletes =
    std::numeric_limits<std::uint32_t>::max();

/// Concrete fault overlay for one timed execution, fully drawn (no
/// residual randomness): applying it is deterministic.
struct SimFaults {
  /// Indexed by token id. kCompletes = traverses normally; h in
  /// [1, depth] = crosses hops 0..h-1 then vanishes; 0 = never issued
  /// (a crashed process's later tokens).
  std::vector<std::uint32_t> lost_before_hop;
  /// Indexed by balancer: true = toggle wedged at its initial position.
  std::vector<bool> stuck;

  std::uint64_t tokens_lost = 0;       ///< Entered but vanished.
  std::uint64_t tokens_not_issued = 0; ///< Suppressed by a crash.
  std::uint64_t balancers_stuck = 0;
  std::uint64_t processes_crashed = 0;

  bool empty() const noexcept {
    return tokens_lost == 0 && tokens_not_issued == 0 &&
           balancers_stuck == 0;
  }
};

/// Draws a concrete overlay for `exec` from the plan's fault stream.
/// Draw order is fixed (balancers ascending, then processes ascending,
/// then tokens in plan order) so a (plan, run_seed) pair replays
/// identically at any thread count.
SimFaults draw_sim_faults(const Network& net, const TimedExecution& exec,
                          const FaultPlan& plan, std::uint64_t run_seed);

struct FaultedSimResult {
  /// Completed tokens only, in plan order. Lost / never-issued tokens
  /// leave no record — exactly what an observer of the live system sees.
  Trace trace;
  std::string error;  ///< Non-empty if the execution was invalid.

  bool ok() const noexcept { return error.empty(); }
};

/// Interprets `exec` under `faults`. Events are processed in increasing
/// (time, rank, token) order, identical to simulate(); a lost token's
/// drop happens at the planned time of its first unexecuted hop.
FaultedSimResult simulate_faulted(const TimedExecution& exec,
                                  const SimFaults& faults);

/// Streaming variant: emits completed tokens' records to `sink` in ISSUE
/// order (via an IssueWindowBuffer, as in simulate_stream; a vanishing
/// token drops its issue slot at its drop event) and leaves
/// FaultedSimResult::trace empty. Lost / never-issued tokens emit
/// nothing, exactly like the batch trace. Does not call sink.finish().
FaultedSimResult simulate_faulted_stream(const TimedExecution& exec,
                                         const SimFaults& faults,
                                         TraceSink& sink);

/// Level-synchronous wave interpreter of the same overlay: the canonical
/// (time, rank, token, hop) event order is drawn from per-process runs
/// by time windows (sim/wave_order.hpp; a doomed token's run entry stops
/// at its drop hop, a never-issued token has none), chunked, and each
/// chunk is bucketed by level, with the fault overlay applied per wave —
/// a doomed token's drop event is consumed at its level without drawing a
/// sequence number, and stuck balancers freeze the explicit per-balancer
/// position the wave loop advances. Routing runs over the compiled
/// tables cached in `arena` (a re-indexing of the graph walk, held
/// identical by tests/compiled_test.cpp). Byte-identical to
/// simulate_faulted(); with an empty overlay, byte-identical to
/// simulate_wave() and simulate() (zero-fault identity). Structurally
/// non-uniform networks and schedules with a step-order overlap (a
/// per-process run that is not sorted) fall back to the scalar
/// interpreter wholesale, reproducing its errors exactly.
FaultedSimResult simulate_faulted_wave(const TimedExecution& exec,
                                       const SimFaults& faults,
                                       SimArena& arena);

/// Streaming twin of simulate_faulted_wave: same record sequence as
/// simulate_faulted_stream, emitted in per-wave on_records batches (the
/// reorder buffer drains once per chunk). Does not call sink.finish().
FaultedSimResult simulate_faulted_wave_stream(const TimedExecution& exec,
                                              const SimFaults& faults,
                                              SimArena& arena,
                                              TraceSink& sink);

}  // namespace cn::fault
