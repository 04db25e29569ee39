// Discrete-event simulator: plays a TimedExecution on the sequential
// engine, in (time, rank) order, producing the trace of values.
//
// The simulator IS the paper's execution model: the adversary fixes when
// every token crosses every layer; the balancer round-robin semantics
// then determine routing and values deterministically.
//
// The hot path is non-recording: tokens advance through the compiled
// routing tables (NetworkState::step_fast) without materializing Step
// records, in-flight tokens are tracked in a per-process vector instead
// of a std::map, and the event queue is a reserved binary heap. Callers
// that want the full step log use simulate_recorded(). Repeated
// simulations of the same network should share a SimArena: it caches the
// compiled tables and reuses every per-trial buffer.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/sequential.hpp"
#include "sim/timed_execution.hpp"
#include "trace/trace.hpp"
#include "trace/sink.hpp"

namespace cn {

class WavePlan;
class WaveOrder;

struct SimulationResult {
  Trace trace;            ///< One record per token, in token-plan order.
  std::string error;      ///< Non-empty if the execution was invalid.
  /// The full step sequence, in execution order; filled only by
  /// simulate_recorded() — the default path skips it.
  std::vector<Step> steps;

  bool ok() const noexcept { return error.empty(); }
};

/// Reusable simulation arena: the compiled routing tables plus every
/// buffer simulate() needs per call (network state, event heap, token
/// records, per-process in-flight slots). Keep one per worker thread and
/// pass it to simulate() so back-to-back trials on the same network stop
/// reallocating.
///
/// The compiled tables are cached by network address (plus a shape/name
/// check): reusing one arena across *different* Network objects is safe
/// but recompiles on every switch.
class SimArena {
 public:
  SimArena();
  ~SimArena();
  SimArena(SimArena&&) noexcept;
  SimArena& operator=(SimArena&&) noexcept;
  SimArena(const SimArena&) = delete;
  SimArena& operator=(const SimArena&) = delete;

  /// A reset NetworkState over `net`: compiles and caches the flat
  /// routing tables on first use, recompiling only when `net` changes.
  NetworkState& acquire(const Network& net);

  /// Compiled routing tables plus level structure for `net`, cached like
  /// acquire(): the shared immutable input of the wave interpreters (the
  /// faulted one lives in fault/faulted_sim.hpp), plus the arena's
  /// canonical-order producer (sim/wave_order.hpp) they both draw
  /// their steps from. Also refreshes the internal wave-mode state arena.
  struct WaveTables {
    const CompiledNetwork* compiled;
    const WavePlan* plan;
    WaveOrder* order;
  };
  WaveTables wave_tables(const Network& net);

 private:
  friend SimulationResult simulate_with(const TimedExecution& exec,
                                        SimArena& arena, bool record_steps,
                                        TraceSink* sink);
  friend SimulationResult simulate_wave_with(const TimedExecution& exec,
                                             SimArena& arena, TraceSink* sink);
  struct Scratch;
  const Network* net_ = nullptr;
  std::shared_ptr<const CompiledNetwork> compiled_;
  std::unique_ptr<NetworkState> state_;
  /// Wave-mode caches: the level structure of compiled_ and a dedicated
  /// CompiledState (the wave interpreter mutates raw compiled state; the
  /// scalar NetworkState above stays untouched). Rebuilt with compiled_.
  std::unique_ptr<WavePlan> wave_plan_;
  std::unique_ptr<CompiledState> wave_state_;
  std::unique_ptr<Scratch> scratch_;
};

/// Runs the timed execution. Steps are executed in increasing (time,
/// rank, token) order; each step advances its token across one node.
/// Requires a uniform network (each token crosses exactly depth+1 nodes).
SimulationResult simulate(const TimedExecution& exec);

/// Same, but reusing `arena`'s compiled tables and buffers. Identical
/// output to simulate(exec) — the arena only removes allocation work.
SimulationResult simulate(const TimedExecution& exec, SimArena& arena);

/// Slow path that additionally returns the full Step log in
/// SimulationResult::steps (the trace is identical to simulate's).
SimulationResult simulate_recorded(const TimedExecution& exec);

/// Streaming variant: emits each TokenRecord to `sink` in ISSUE order
/// (non-decreasing (first_seq, last_seq, token) — the TraceSink contract)
/// and leaves SimulationResult::trace empty. Tokens complete in seq
/// order, so records pass through an IssueWindowBuffer (first_seqs are
/// drawn from the incrementing step counter, so issue order equals open
/// order); trace memory is O(open tokens) (one first_seq slot per
/// process plus the emission window) instead of O(tokens). Emits the
/// same record set as simulate()'s trace; does not call sink.finish() —
/// the caller owns the stream lifetime.
SimulationResult simulate_stream(const TimedExecution& exec, SimArena& arena,
                                 TraceSink& sink);

/// Level-synchronous wave interpreter: byte-identical results to
/// simulate(exec, arena), computed wave-by-wave instead of event-by-event.
///
/// Every step of a timed execution is known up front (the plans fix all
/// crossing times), and the scalar event heap pops in exactly the total
/// order (time, rank, token, hop) — a pending successor event never
/// precedes its predecessor under that key. A process's tokens run one
/// after another, so each process's steps form one sorted run:
/// WaveOrder (sim/wave_order.hpp) groups the plans into those runs and
/// cuts the order into time windows, each counting-sorted by time bucket
/// and ordered by the full key inside a bucket — O(E) for E steps, one
/// fixed-size chunk at a time. Each chunk is bucketed by
/// hop (= level, for a uniform network) and each level runs as one wave
/// through the core wave kernels (core/wave.hpp). Per-balancer arrival
/// order is preserved because a balancer lives at exactly one level and
/// bucketing is stable; sequence numbers are the canonical positions,
/// which is exactly the scalar seq assignment. Executions the wave path
/// cannot take — structurally non-uniform networks, and schedules with a
/// step-order overlap, which are exactly those whose per-process runs
/// are not sorted — fall back to the scalar interpreter wholesale,
/// reproducing its errors (and any partial sink emission) exactly.
SimulationResult simulate_wave(const TimedExecution& exec, SimArena& arena);

/// Streaming twin of simulate_wave: same record sequence as
/// simulate_stream (the reorder buffer drains once per chunk, which
/// releases records in the identical order — the minimum open first_seq
/// only ever grows), emitted in per-wave on_records batches. Does not
/// call sink.finish().
SimulationResult simulate_wave_stream(const TimedExecution& exec,
                                      SimArena& arena, TraceSink& sink);

}  // namespace cn
