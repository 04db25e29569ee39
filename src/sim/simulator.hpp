// Discrete-event simulator: plays a TimedExecution, in (time, rank,
// token, hop) order, producing the trace of values.
//
// The simulator IS the paper's execution model: the adversary fixes when
// every token crosses every layer; the balancer round-robin semantics
// then determine routing and values deterministically. There is one
// interpreter per way of executing that model:
//
//   * simulate_with — the scalar interpreter: a reserved binary heap of
//     pending steps, one hop per pop;
//   * simulate_wave_with — the level-synchronous wave interpreter: the
//     same steps in the same order, a chunk at a time, each level of a
//     chunk one wave through the core wave kernels.
//
// Both step the compiled routing tables and a CompiledState
// (core/compiled.hpp) held in a SimArena, and both take an overlay
// policy. NoFaults is the paper's model. SimFaults (drawn by
// fault/faulted_sim.hpp) breaks its liveness property on purpose: lost
// tokens cross a prefix of their hops and vanish, stuck balancers never
// toggle, crashed processes stop issuing. Under NoFaults every fault
// branch compiles out; the overlay only decides whether a token takes
// its next hop and whether a balancer hop advances the balancer's count.
// A stuck balancer is one whose count never advances, so it keeps handing
// out port_of(r, 0) == 0, its frozen initial port.
//
// The named entry points below (simulate, simulate_stream, ...) are the
// pristine instantiations. Callers that want the full step log use
// simulate_recorded(). Repeated simulations of the same network should
// share a SimArena: it caches the compiled tables and reuses every
// per-trial buffer.
#pragma once

#include <cstdint>
#include <limits>
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
class SimArena;

struct SimulationResult {
  /// One record per completed token, in token-plan order. Under a fault
  /// overlay, lost and never-issued tokens leave no record — exactly what
  /// an observer of the live system sees.
  Trace trace;
  std::string error;      ///< Non-empty if the execution was invalid.
  /// The full step sequence, in execution order; filled only by
  /// simulate_recorded() — the default path skips it.
  std::vector<Step> steps;

  bool ok() const noexcept { return error.empty(); }
};

/// The empty overlay: every token completes, every balancer toggles.
struct NoFaults {};

/// Hop sentinel: the token completes its traversal.
inline constexpr std::uint32_t kCompletes =
    std::numeric_limits<std::uint32_t>::max();

/// Concrete fault overlay for one timed execution, fully drawn (no
/// residual randomness): applying it is deterministic.
struct SimFaults {
  /// Indexed by token id. kCompletes = traverses normally; h in
  /// [1, depth] = crosses hops 0..h-1 then vanishes; 0 = never issued
  /// (a crashed process's later tokens). Ids past the end complete.
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

  /// The hop at which `token` vanishes, or kCompletes.
  std::uint32_t lost_hop(TokenId token) const noexcept {
    return token < lost_before_hop.size() ? lost_before_hop[token]
                                          : kCompletes;
  }
};

/// The scalar interpreter. Steps are executed in increasing (time, rank,
/// token) order; each step advances its token across one node. Requires
/// a uniform network (each token crosses exactly depth+1 nodes). A lost
/// token's drop happens at the planned time of its first unexecuted hop:
/// it frees the token's process and draws no sequence number.
///
/// With `sink` null the records are collected into the result's trace.
/// Otherwise each completed token's record goes to `sink` in ISSUE order
/// (non-decreasing (first_seq, last_seq, token) — the TraceSink
/// contract) and the trace stays empty: tokens complete in seq order, so
/// records pass through an IssueWindowBuffer (first_seqs are drawn from
/// the incrementing step counter, so issue order equals open order), and
/// a vanishing token drops its issue slot at its drop event. Emits the
/// same record set as the collecting run; does not call sink.finish() —
/// the caller owns the stream lifetime. `record_steps` fills the
/// result's step log. Defined for the two overlays, NoFaults and
/// SimFaults.
template <class Overlay>
SimulationResult simulate_with(const TimedExecution& exec, SimArena& arena,
                               const Overlay& overlay, TraceSink* sink,
                               bool record_steps = false);

/// The level-synchronous wave interpreter: byte-identical results to
/// simulate_with under the same overlay, computed wave-by-wave instead
/// of event-by-event.
///
/// Every step of a timed execution is known up front (the plans fix all
/// crossing times), and the scalar event heap pops in exactly the total
/// order (time, rank, token, hop) — a pending successor event never
/// precedes its predecessor under that key. A process's tokens run one
/// after another, so each process's steps form one sorted run:
/// WaveOrder (sim/wave_order.hpp) groups the plans into those runs (a
/// lost token's run entry stops at its drop hop, a never-issued token has
/// none) and cuts the order into time windows, each counting-sorted by
/// time bucket and ordered by the full key inside a bucket — O(E) for E
/// steps, one fixed-size chunk at a time. Each chunk is bucketed by hop
/// (= level, for a uniform network) and each level runs as one wave
/// through the core wave kernels (core/wave.hpp); under SimFaults a
/// level's drop events leave the wave and its hops go through the
/// overlay. Per-balancer arrival order is preserved because a balancer
/// lives at exactly one level and bucketing is stable; sequence numbers
/// are the canonical positions (drop events skipped), which is exactly
/// the scalar seq assignment. Streaming runs drain the reorder buffer
/// once per chunk, which releases records in the identical order (the
/// minimum open first_seq only ever grows), in per-wave on_records
/// batches. Executions the wave path cannot take — structurally
/// non-uniform networks, and schedules with a step-order overlap, which
/// are exactly those whose per-process runs are not sorted — fall back
/// to the scalar interpreter wholesale, reproducing its errors (and any
/// partial sink emission) exactly.
template <class Overlay>
SimulationResult simulate_wave_with(const TimedExecution& exec,
                                    SimArena& arena, const Overlay& overlay,
                                    TraceSink* sink);

/// Reusable simulation arena: the compiled routing tables plus every
/// buffer the interpreters need per call (network state, event heap,
/// token records, per-process in-flight slots, the wave step order). Keep
/// one per worker thread and pass it to the interpreters so back-to-back
/// trials on the same network stop reallocating.
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

  /// A reset CompiledState over `net`: compiles and caches the flat
  /// routing tables on first use, recompiling only when `net` changes.
  CompiledState& acquire(const Network& net);

  /// acquire(), plus the level structure of the compiled tables and the
  /// arena's canonical-order producer (sim/wave_order.hpp): the inputs
  /// of the wave interpreter.
  struct WaveTables {
    const CompiledNetwork* compiled;
    const WavePlan* plan;
    WaveOrder* order;
  };
  WaveTables wave_tables(const Network& net);

 private:
  template <class Overlay>
  friend SimulationResult simulate_with(const TimedExecution&, SimArena&,
                                        const Overlay&, TraceSink*, bool);
  template <class Overlay>
  friend SimulationResult simulate_wave_with(const TimedExecution&,
                                             SimArena&, const Overlay&,
                                             TraceSink*);
  struct Scratch;
  const Network* net_ = nullptr;
  std::unique_ptr<const CompiledNetwork> compiled_;
  std::unique_ptr<CompiledState> state_;
  std::unique_ptr<WavePlan> wave_plan_;  ///< Built on first wave use.
  std::unique_ptr<Scratch> scratch_;
};

/// simulate_with(exec, arena, NoFaults{}, nullptr) on a fresh arena.
SimulationResult simulate(const TimedExecution& exec);

/// Same, reusing `arena`'s compiled tables and buffers. Identical
/// output to simulate(exec) — the arena only removes allocation work.
SimulationResult simulate(const TimedExecution& exec, SimArena& arena);

/// Slow path that additionally returns the full Step log in
/// SimulationResult::steps (the trace is identical to simulate's).
SimulationResult simulate_recorded(const TimedExecution& exec);

/// Streaming pristine run (see simulate_with).
SimulationResult simulate_stream(const TimedExecution& exec, SimArena& arena,
                                 TraceSink& sink);

/// Pristine wave run: byte-identical results to simulate(exec, arena).
SimulationResult simulate_wave(const TimedExecution& exec, SimArena& arena);

/// Streaming pristine wave run: same record sequence as simulate_stream.
SimulationResult simulate_wave_stream(const TimedExecution& exec,
                                      SimArena& arena, TraceSink& sink);

}  // namespace cn
