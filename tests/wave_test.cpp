// Differential tests for the level-synchronous wave execution stack
// (core/wave + simulate_wave + simulate_faulted_wave + engine wave_exec)
// against the scalar interpreters, which remain the executable
// specification.
//
// The contract under test is BYTE-IDENTITY: for every execution the wave
// path accepts it must reproduce the scalar path's traces (every
// TokenRecord field, including seq numbers), errors, streaming record
// sequences, consistency reports, and sweep JSON; executions it cannot
// take (non-uniform networks, overlap violations) must fall back to the
// scalar interpreter and reproduce its behavior exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "core/compiled.hpp"
#include "core/constructions.hpp"
#include "core/sequential.hpp"
#include "core/wave.hpp"
#include "engine/engine.hpp"
#include "fault/faulted_sim.hpp"
#include "sim/simulator.hpp"
#include "sim/timed_execution.hpp"
#include "sim/wave_order.hpp"
#include "sim/workload.hpp"
#include "trace/consistency.hpp"
#include "trace/sink.hpp"
#include "trace/streaming.hpp"
#include "util/rng.hpp"

namespace cn {
namespace {

// ---------------------------------------------------------------------
// WavePlan: level assignment and the uniformity certificate.
// ---------------------------------------------------------------------

TEST(WavePlan, LevelsBitonic8) {
  const Network net = make_bitonic(8);
  const CompiledNetwork compiled(net);
  const WavePlan plan(compiled);
  ASSERT_TRUE(plan.uniform());
  EXPECT_EQ(plan.depth(), net.depth());
  // Level 0 is exactly the source wires, in ascending wire order.
  ASSERT_EQ(plan.wires_at(0).size(), 8u);
  for (std::uint32_t i = 0; i < 8; ++i) {
    EXPECT_EQ(plan.level_of_wire(compiled.source_wire(i)), 0u);
  }
  // Every level of B(8) has full width; counters sit at level depth.
  for (std::uint32_t l = 0; l <= plan.depth(); ++l) {
    EXPECT_EQ(plan.wires_at(l).size(), 8u) << "level " << l;
  }
  for (const WireIndex w : plan.wires_at(plan.depth())) {
    EXPECT_TRUE(compiled.route(w).is_sink);
  }
}

TEST(WavePlan, CountingTreeIsUniform) {
  const Network net = make_counting_tree(8);
  const CompiledNetwork compiled(net);
  const WavePlan plan(compiled);
  EXPECT_TRUE(plan.uniform());
  EXPECT_EQ(plan.depth(), net.depth());
  EXPECT_EQ(plan.wires_at(0).size(), 1u);  // one source
}

TEST(WavePlan, BrickWallIsNotUniform) {
  const Network net = make_brick_wall(4, 3);
  const CompiledNetwork compiled(net);
  const WavePlan plan(compiled);
  EXPECT_FALSE(plan.uniform());
}

// ---------------------------------------------------------------------
// Generic wave kernels vs the scalar engine, level-major order.
// ---------------------------------------------------------------------

// Scalar reference for one wave round: enter tokens in span order, then
// advance every token one node per level, in span order — exactly the
// order the wave kernels promise.
TEST(GenericWave, MatchesScalarLevelMajorStepping) {
  const Network net = make_bitonic(8);
  const CompiledNetwork compiled(net);
  const WavePlan plan(compiled);
  ASSERT_TRUE(plan.uniform());
  const std::uint32_t d = plan.depth();

  NetworkState scalar(net);
  CompiledState wave_state(compiled);
  TokenId next = 0;
  for (std::uint32_t round = 0; round < 5; ++round) {
    std::vector<TokenCursor> wave(8);
    std::vector<TokenId> ids(8);
    for (std::uint32_t i = 0; i < 8; ++i) {
      ids[i] = next++;
      scalar.enter(ids[i], /*process=*/i, /*source=*/i);
      wave[i] = TokenCursor{compiled.source_wire(i), i};
      ++wave_state.source_count[i];
    }
    for (std::uint32_t l = 0; l < d; ++l) {
      for (const TokenId t : ids) scalar.step(t);
      step_wave(compiled, wave_state, wave);
    }
    std::vector<Value> values(8);
    for (const TokenId t : ids) scalar.step(t);
    step_wave_counters(compiled, wave_state, wave, values);
    for (std::uint32_t i = 0; i < 8; ++i) {
      ASSERT_TRUE(scalar.done(ids[i]));
      EXPECT_EQ(values[i], scalar.value(ids[i])) << "round " << round
                                                 << " slot " << i;
    }
    // The shared history variables agree at quiescence.
    for (std::uint32_t j = 0; j < 8; ++j) {
      EXPECT_EQ(wave_state.counter_next[j], scalar.counter_next(j));
    }
    for (NodeIndex b = 0; b < net.num_balancers(); ++b) {
      EXPECT_EQ(wave_state.bal_through[b] % 2, scalar.balancer_position(b));
    }
  }
}

// Non-power-of-two fan-out ((1,3) balancers): the kNoMask modulo path.
TEST(GenericWave, HandlesNonPowerOfTwoFanOut) {
  const Network net = make_counting_tree_k(9, 3);
  const CompiledNetwork compiled(net);
  const WavePlan plan(compiled);
  ASSERT_TRUE(plan.uniform());
  const std::uint32_t d = plan.depth();

  NetworkState scalar(net);
  CompiledState wave_state(compiled);
  const std::uint32_t batch = 9;
  TokenId next = 0;
  for (std::uint32_t round = 0; round < 4; ++round) {
    std::vector<TokenCursor> wave(batch);
    std::vector<TokenId> ids(batch);
    for (std::uint32_t i = 0; i < batch; ++i) {
      ids[i] = next++;
      scalar.enter(ids[i], /*process=*/i, /*source=*/0);
      wave[i] = TokenCursor{compiled.source_wire(0), i};
    }
    for (std::uint32_t l = 0; l < d; ++l) {
      for (const TokenId t : ids) scalar.step(t);
      step_wave(compiled, wave_state, wave);
    }
    std::vector<Value> values(batch);
    for (const TokenId t : ids) scalar.step(t);
    step_wave_counters(compiled, wave_state, wave, values);
    for (std::uint32_t i = 0; i < batch; ++i) {
      EXPECT_EQ(values[i], scalar.value(ids[i]));
    }
  }
}

// ---------------------------------------------------------------------
// WidthWaves<W>: the specialized tables are a re-indexing of the generic
// ones — identical values, identical CompiledState.
// ---------------------------------------------------------------------

template <std::uint32_t W>
void run_width_differential(const Network& net, std::uint32_t rounds) {
  const CompiledNetwork compiled(net);
  const WavePlan plan(compiled);
  ASSERT_TRUE(plan.uniform());
  const auto waves = WidthWaves<W>::try_build(plan);
  ASSERT_NE(waves, nullptr);
  EXPECT_EQ(waves->depth(), plan.depth());
  // Slot-to-wire cross-check at the entry level.
  for (std::uint32_t i = 0; i < W; ++i) {
    EXPECT_EQ(waves->wire_of_slot(0, waves->entry_slot(i)),
              compiled.source_wire(i));
  }

  CompiledState generic_state(compiled);
  CompiledState spec_state(compiled);
  Xoshiro256 rng(99);
  for (std::uint32_t round = 0; round < rounds; ++round) {
    // A random subset of sources, random order: partial waves too.
    std::vector<std::uint32_t> sources;
    for (std::uint32_t i = 0; i < W; ++i) {
      if (rng.below(4) != 0) sources.push_back(i);
    }
    for (std::size_t i = sources.size(); i > 1; --i) {
      std::swap(sources[i - 1], sources[rng.below(i)]);
    }
    const auto n = static_cast<std::uint32_t>(sources.size());
    std::vector<TokenCursor> generic_wave(n), spec_wave(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      generic_wave[i] = TokenCursor{compiled.source_wire(sources[i]), i};
      spec_wave[i] = TokenCursor{waves->entry_slot(sources[i]), i};
    }
    for (std::uint32_t l = 0; l < plan.depth(); ++l) {
      step_wave(compiled, generic_state, generic_wave);
      waves->step_level(l, spec_state, spec_wave);
      for (std::uint32_t i = 0; i < n; ++i) {
        EXPECT_EQ(waves->wire_of_slot(l + 1, spec_wave[i].wire),
                  generic_wave[i].wire)
            << "round " << round << " level " << l << " cursor " << i;
      }
    }
    std::vector<Value> generic_values(n), spec_values(n);
    step_wave_counters(compiled, generic_state, generic_wave, generic_values);
    waves->step_counters(spec_state, spec_wave, spec_values);
    EXPECT_EQ(generic_values, spec_values) << "round " << round;
    EXPECT_EQ(generic_state, spec_state) << "round " << round;
  }
}

TEST(WidthWaves, MatchesGenericBitonic8) {
  run_width_differential<8>(make_bitonic(8), 12);
}

TEST(WidthWaves, MatchesGenericPeriodic8) {
  run_width_differential<8>(make_periodic(8), 12);
}

TEST(WidthWaves, MatchesGenericBitonic32) {
  run_width_differential<32>(make_bitonic(32), 6);
}

TEST(WidthWaves, MatchesGenericBitonic64) {
  run_width_differential<64>(make_bitonic(64), 4);
}

TEST(WidthWaves, RejectsWrongShape) {
  const Network b32 = make_bitonic(32);
  const CompiledNetwork c32(b32);
  const WavePlan p32(c32);
  EXPECT_EQ(WidthWaves<8>::try_build(p32), nullptr);  // wrong width

  const Network b8 = make_bitonic(8);
  const CompiledNetwork c8(b8);
  const WavePlan p8(c8);
  EXPECT_EQ(WidthWaves<32>::try_build(p8), nullptr);

  // Counting tree: levels narrower than the sink width, (1,2) balancers.
  const Network tree = make_counting_tree(8);
  const CompiledNetwork ctree(tree);
  const WavePlan ptree(ctree);
  ASSERT_TRUE(ptree.uniform());
  EXPECT_EQ(WidthWaves<8>::try_build(ptree), nullptr);
}

// ---------------------------------------------------------------------
// simulate_wave vs simulate: full-trace byte-identity.
// ---------------------------------------------------------------------

void expect_same_result(const SimulationResult& scalar,
                        const SimulationResult& wave,
                        const std::string& what) {
  EXPECT_EQ(scalar.error, wave.error) << what;
  ASSERT_EQ(scalar.trace.size(), wave.trace.size()) << what;
  for (std::size_t i = 0; i < scalar.trace.size(); ++i) {
    EXPECT_EQ(scalar.trace[i], wave.trace[i]) << what << " record " << i;
  }
}

TEST(SimulateWave, MatchesScalarOnRandomWorkloads) {
  struct Config {
    Network net;
    std::string name;
  };
  std::vector<Config> configs;
  configs.push_back({make_bitonic(8), "bitonic8"});
  configs.push_back({make_periodic(8), "periodic8"});
  configs.push_back({make_bitonic(32), "bitonic32"});
  configs.push_back({make_counting_tree(8), "tree8"});
  configs.push_back({make_counting_tree_k(9, 3), "tree9x3"});

  SimArena arena;
  for (const Config& cfg : configs) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      WorkloadSpec spec;
      spec.processes = 6;
      spec.tokens_per_process = 24;  // several kWaveChunk-relative sizes
      spec.c_min = 1.0;
      spec.c_max = 2.5;
      spec.local_delay_max = 1.0;
      Xoshiro256 rng(seed);
      const TimedExecution exec = generate_workload(cfg.net, spec, rng);
      const SimulationResult scalar = simulate(exec);
      const SimulationResult wave = simulate_wave(exec, arena);
      expect_same_result(scalar, wave,
                         cfg.name + " seed " + std::to_string(seed));
    }
  }
}

// Tie-heavy schedules: every crossing time an integer, many simultaneous
// events, ranks deciding the order — the regime where seq assignment and
// per-balancer arrival order actually bite.
TEST(SimulateWave, MatchesScalarOnTieHeavySchedules) {
  const Network net = make_bitonic(8);
  SimArena arena;
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    Xoshiro256 rng(100 + seed);
    TimedExecution exec;
    exec.net = &net;
    for (TokenId t = 0; t < 64; ++t) {
      TokenPlan p = make_uniform_plan(
          t, /*process=*/static_cast<ProcessId>(t % 16),
          /*source=*/static_cast<std::uint32_t>(rng.below(8)), net.depth(),
          /*t_in=*/static_cast<double>((t / 16) * (net.depth() + 1)),
          /*delay=*/1.0,
          /*rank=*/static_cast<double>(rng.below(5)));
      exec.plans.push_back(std::move(p));
    }
    ASSERT_EQ(validate(exec), "");
    const SimulationResult scalar = simulate(exec);
    ASSERT_TRUE(scalar.ok()) << scalar.error;
    const SimulationResult wave = simulate_wave(exec, arena);
    expect_same_result(scalar, wave, "ties seed " + std::to_string(seed));
  }
}

TEST(SimulateWave, EmptyAndSingleToken) {
  const Network net = make_bitonic(8);
  SimArena arena;
  TimedExecution empty;
  empty.net = &net;
  expect_same_result(simulate(empty), simulate_wave(empty, arena), "empty");

  TimedExecution one;
  one.net = &net;
  one.plans.push_back(make_uniform_plan(0, 0, 3, net.depth(), 0.0, 1.0));
  const SimulationResult scalar = simulate(one);
  ASSERT_TRUE(scalar.ok());
  ASSERT_EQ(scalar.trace.size(), 1u);
  expect_same_result(scalar, simulate_wave(one, arena), "single");
}

// Non-uniform network: the wave path must fall back and reproduce the
// scalar error text exactly.
TEST(SimulateWave, NonUniformFallsBackToScalarError) {
  const Network net = make_brick_wall(4, 3);
  TimedExecution exec;
  exec.net = &net;
  exec.plans.push_back(make_uniform_plan(0, 0, 0, net.depth(), 0.0, 1.0));
  SimArena arena;
  const SimulationResult scalar = simulate(exec);
  const SimulationResult wave = simulate_wave(exec, arena);
  EXPECT_EQ(scalar.error, wave.error);
  EXPECT_FALSE(wave.ok());
}

TEST(SimulateWave, ReservedTokenIdError) {
  const Network net = make_bitonic(4);
  TimedExecution exec;
  exec.net = &net;
  exec.plans.push_back(
      make_uniform_plan(std::numeric_limits<TokenId>::max(), 0, 0,
                        net.depth(), 0.0, 1.0));
  SimArena arena;
  const SimulationResult scalar = simulate(exec);
  const SimulationResult wave = simulate_wave(exec, arena);
  EXPECT_FALSE(scalar.ok());
  EXPECT_EQ(scalar.error, wave.error);
}

// Equal-time adverse-rank overlap: validate() passes (back-to-back times
// are legal) but the runtime event order issues process 9's second token
// before its first completes. The wave path must detect this (process
// 9's run is not sorted) and fall back, reproducing the scalar error AND
// the scalar's partial stream emission.
TimedExecution make_overlap_exec(const Network& net) {
  TimedExecution exec;
  exec.net = &net;
  const std::uint32_t d = net.depth();
  // Two earlier tokens that complete cleanly (the emitted prefix).
  exec.plans.push_back(make_uniform_plan(0, 0, 0, d, 0.0, 0.25));
  exec.plans.push_back(make_uniform_plan(1, 1, 1, d, 0.0, 0.25));
  // Token 2 of process 9 exits at time d; token 3 of process 9 enters at
  // time d with a LOWER rank, so its entry event pops first.
  TokenPlan a = make_uniform_plan(2, 9, 2, d, 0.0, 1.0, /*rank=*/1.0);
  TokenPlan b = make_uniform_plan(3, 9, 3, d, static_cast<double>(d), 1.0,
                                  /*rank=*/0.0);
  exec.plans.push_back(std::move(a));
  exec.plans.push_back(std::move(b));
  return exec;
}

TEST(SimulateWave, OverlapPrecheckFallsBackIdentically) {
  const Network net = make_bitonic(8);
  const TimedExecution exec = make_overlap_exec(net);
  ASSERT_EQ(validate(exec), "");
  SimArena arena;
  const SimulationResult scalar = simulate(exec);
  ASSERT_FALSE(scalar.ok());
  EXPECT_NE(scalar.error.find("step-order overlap"), std::string::npos)
      << scalar.error;
  const SimulationResult wave = simulate_wave(exec, arena);
  EXPECT_EQ(scalar.error, wave.error);

  // Streaming: the partial emission before the failure must match too.
  CollectSink scalar_sink, wave_sink;
  SimArena a2;
  const SimulationResult s2 = simulate_stream(exec, a2, scalar_sink);
  const SimulationResult w2 = simulate_wave_stream(exec, a2, wave_sink);
  EXPECT_EQ(s2.error, w2.error);
  EXPECT_EQ(scalar_sink.trace(), wave_sink.trace());
}

// ---------------------------------------------------------------------
// Streaming: identical record sequences and consistency reports.
// ---------------------------------------------------------------------

void expect_same_report(const ConsistencyReport& a,
                        const ConsistencyReport& b) {
  EXPECT_EQ(a.total, b.total);
  EXPECT_EQ(a.non_linearizable, b.non_linearizable);
  EXPECT_EQ(a.non_sequentially_consistent, b.non_sequentially_consistent);
  EXPECT_EQ(a.f_nl, b.f_nl);
  EXPECT_EQ(a.f_nsc, b.f_nsc);
}

TEST(SimulateWaveStream, MatchesScalarStream) {
  const Network net = make_bitonic(8);
  SimArena arena;
  for (std::uint64_t seed = 21; seed <= 23; ++seed) {
    WorkloadSpec spec;
    spec.processes = 8;
    spec.tokens_per_process = 32;
    spec.c_max = 3.0;  // past the ratio bound: violations in the stream
    Xoshiro256 rng(seed);
    const TimedExecution exec = generate_workload(net, spec, rng);

    CollectSink scalar_collect, wave_collect;
    StreamingConsistency scalar_cons, wave_cons;
    TeeSink scalar_tee(scalar_collect, scalar_cons);
    TeeSink wave_tee(wave_collect, wave_cons);
    const SimulationResult s = simulate_stream(exec, arena, scalar_tee);
    const SimulationResult w = simulate_wave_stream(exec, arena, wave_tee);
    ASSERT_TRUE(s.ok()) << s.error;
    ASSERT_TRUE(w.ok()) << w.error;
    scalar_cons.finish();
    wave_cons.finish();
    EXPECT_EQ(scalar_collect.trace(), wave_collect.trace());
    expect_same_report(scalar_cons.report(), wave_cons.report());
    // And the stream is the batch trace, reordered by issue order.
    const SimulationResult batch = simulate(exec);
    EXPECT_EQ(scalar_collect.trace().size(), batch.trace.size());
  }
}

// ---------------------------------------------------------------------
// Faulted wave interpreter.
// ---------------------------------------------------------------------

void expect_same_faulted(const SimulationResult& scalar,
                         const SimulationResult& wave,
                         const std::string& what) {
  EXPECT_EQ(scalar.error, wave.error) << what;
  ASSERT_EQ(scalar.trace.size(), wave.trace.size()) << what;
  for (std::size_t i = 0; i < scalar.trace.size(); ++i) {
    EXPECT_EQ(scalar.trace[i], wave.trace[i]) << what << " record " << i;
  }
}

TEST(FaultedWave, ZeroFaultIdentity) {
  const Network net = make_bitonic(8);
  WorkloadSpec spec;
  spec.processes = 6;
  spec.tokens_per_process = 16;
  Xoshiro256 rng(7);
  const TimedExecution exec = generate_workload(net, spec, rng);
  SimFaults none;  // fully-sized overlay with no faults drawn
  none.lost_before_hop.assign(exec.plans.size(), kCompletes);
  none.stuck.assign(net.num_balancers(), false);
  SimArena arena;
  const SimulationResult scalar = simulate_with(exec, arena, none, nullptr);
  const SimulationResult wave = simulate_wave_with(exec, arena, none, nullptr);
  expect_same_faulted(scalar, wave, "zero-fault");
  // ... and both equal the pristine interpreters.
  const SimulationResult pristine = simulate(exec);
  ASSERT_TRUE(pristine.ok());
  ASSERT_EQ(wave.trace.size(), pristine.trace.size());
  for (std::size_t i = 0; i < wave.trace.size(); ++i) {
    EXPECT_EQ(wave.trace[i], pristine.trace[i]) << "record " << i;
  }
}

TEST(FaultedWave, MatchesScalarUnderMixedFaults) {
  struct Config {
    Network net;
    std::string name;
  };
  std::vector<Config> configs;
  configs.push_back({make_bitonic(8), "bitonic8"});
  configs.push_back({make_periodic(8), "periodic8"});
  configs.push_back({make_counting_tree_k(9, 3), "tree9x3"});

  SimArena arena;
  for (const Config& cfg : configs) {
    for (std::uint64_t seed = 41; seed <= 44; ++seed) {
      WorkloadSpec wl;
      wl.processes = 6;
      wl.tokens_per_process = 24;
      Xoshiro256 rng(seed);
      const TimedExecution exec = generate_workload(cfg.net, wl, rng);
      fault::FaultPlan plan;
      plan.enabled = true;
      plan.p_token_loss = 0.2;
      plan.p_stuck_balancer = 0.25;
      plan.p_process_crash = 0.15;
      const SimFaults faults =
          fault::draw_sim_faults(cfg.net, exec, plan, seed);
      const SimulationResult scalar = simulate_with(exec, arena, faults, nullptr);
      const SimulationResult wave =
          simulate_wave_with(exec, arena, faults, nullptr);
      expect_same_faulted(scalar, wave,
                          cfg.name + " seed " + std::to_string(seed));
      // The overlay actually did something on at least one seed; the
      // draw probabilities guarantee it across this grid.
      if (seed == 41 && cfg.name == "bitonic8") {
        EXPECT_FALSE(faults.empty());
      }
    }
  }
}

TEST(FaultedWave, StreamMatchesScalarStream) {
  const Network net = make_bitonic(8);
  WorkloadSpec wl;
  wl.processes = 8;
  wl.tokens_per_process = 32;
  wl.c_max = 3.0;
  SimArena arena;
  for (std::uint64_t seed = 61; seed <= 63; ++seed) {
    Xoshiro256 rng(seed);
    const TimedExecution exec = generate_workload(net, wl, rng);
    fault::FaultPlan plan;
    plan.enabled = true;
    plan.p_token_loss = 0.25;
    plan.p_stuck_balancer = 0.2;
    const SimFaults faults =
        fault::draw_sim_faults(net, exec, plan, seed);

    CollectSink scalar_collect, wave_collect;
    StreamingConsistency scalar_cons, wave_cons;
    TeeSink scalar_tee(scalar_collect, scalar_cons);
    TeeSink wave_tee(wave_collect, wave_cons);
    const SimulationResult s = simulate_with(exec, arena, faults, &scalar_tee);
    const SimulationResult w = simulate_wave_with(exec, arena, faults, &wave_tee);
    ASSERT_TRUE(s.ok()) << s.error;
    ASSERT_TRUE(w.ok()) << w.error;
    scalar_cons.finish();
    wave_cons.finish();
    EXPECT_EQ(scalar_collect.trace(), wave_collect.trace());
    expect_same_report(scalar_cons.report(), wave_cons.report());
  }
}

// ---------------------------------------------------------------------
// The canonical order across chunk boundaries: the per-process merge
// against a full sort, and wave against scalar on schedules of several
// kWaveChunk-sized rounds.
// ---------------------------------------------------------------------

TimedExecution make_sweep_exec(const Network& net, std::uint32_t processes,
                               std::uint32_t ops, std::uint64_t seed,
                               double c_max = 4.0) {
  WorkloadSpec spec;
  spec.processes = processes;
  spec.tokens_per_process = ops;
  spec.c_min = 1.0;
  spec.c_max = c_max;
  Xoshiro256 rng(seed);
  return generate_workload(net, spec, rng);
}

std::size_t num_steps(const TimedExecution& exec) {
  return exec.plans.size() * (exec.net->depth() + 1);
}

/// Every step of `exec` (hops 0..min(stop, depth) per token, none for
/// stop 0), sorted by the scalar heap's (time, rank, token, hop) key.
std::vector<std::pair<std::uint32_t, std::uint32_t>> sorted_steps(
    const TimedExecution& exec, const std::vector<std::uint32_t>& stop) {
  std::vector<std::tuple<double, double, TokenId, std::uint32_t,
                         std::uint32_t>>
      keyed;
  const std::uint32_t d = exec.net->depth();
  for (std::uint32_t i = 0; i < exec.plans.size(); ++i) {
    const TokenPlan& p = exec.plans[i];
    const std::uint32_t s =
        p.token < stop.size() ? stop[p.token] : kCompletes;
    if (s == 0) continue;
    for (std::uint32_t h = 0; h <= std::min(s, d); ++h) {
      keyed.emplace_back(p.times[h], p.rank, p.token, h, i);
    }
  }
  std::sort(keyed.begin(), keyed.end());
  std::vector<std::pair<std::uint32_t, std::uint32_t>> out;
  for (const auto& k : keyed) out.emplace_back(std::get<4>(k), std::get<3>(k));
  return out;
}

/// Drains `order` into (plan, hop) pairs, checking the chunk sizes.
std::vector<std::pair<std::uint32_t, std::uint32_t>> drain(WaveOrder& order) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> out;
  while (order.remaining() > 0) {
    const std::size_t want = std::min(kWaveChunk, order.remaining());
    const std::span<const WaveEvent> chunk = order.next_chunk();
    EXPECT_EQ(chunk.size(), want);
    for (const WaveEvent& e : chunk) out.emplace_back(e.plan, e.hop);
  }
  EXPECT_TRUE(order.next_chunk().empty());
  return out;
}

/// Plans of `exec` shuffled in list order.
void shuffle_plans(TimedExecution& exec, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  for (std::size_t i = exec.plans.size(); i > 1; --i) {
    std::swap(exec.plans[i - 1], exec.plans[rng.below(i)]);
  }
}

/// Renames process p to ids[p % ids.size()] + p / ids.size(), keeping
/// the processes distinct but their ids far apart.
void spread_processes(TimedExecution& exec,
                      const std::vector<ProcessId>& ids) {
  for (TokenPlan& p : exec.plans) {
    p.process = ids[p.process % ids.size()] +
                static_cast<ProcessId>(p.process / ids.size());
  }
}

/// Makes token `victim` of its process enter at the exact time its
/// predecessor (the plan listed just before it, same process) leaves,
/// with a lower rank: validate() accepts it, the step order overlaps.
void force_overlap(TimedExecution& exec, std::size_t victim) {
  const TokenPlan& prev = exec.plans[victim - 1];
  TokenPlan& cur = exec.plans[victim];
  ASSERT_EQ(prev.process, cur.process);
  cur.times[0] = prev.t_out();
  cur.rank = prev.rank - 0.5;
}

void expect_wave_equals_scalar(const TimedExecution& exec,
                               const std::string& what) {
  SimArena arena;
  const SimulationResult scalar = simulate(exec);
  expect_same_result(scalar, simulate_wave(exec, arena), what);

  CollectSink scalar_sink, wave_sink;
  const SimulationResult s = simulate_stream(exec, arena, scalar_sink);
  const SimulationResult w = simulate_wave_stream(exec, arena, wave_sink);
  EXPECT_EQ(s.error, w.error) << what;
  EXPECT_EQ(scalar_sink.trace(), wave_sink.trace()) << what;
}

void expect_faulted_wave_equals_scalar(const TimedExecution& exec,
                                       const SimFaults& faults,
                                       const std::string& what) {
  SimArena arena;
  expect_same_faulted(simulate_with(exec, arena, faults, nullptr),
                      simulate_wave_with(exec, arena, faults, nullptr), what);

  CollectSink scalar_sink, wave_sink;
  const SimulationResult s = simulate_with(exec, arena, faults, &scalar_sink);
  const SimulationResult w = simulate_wave_with(exec, arena, faults, &wave_sink);
  EXPECT_EQ(s.error, w.error) << what;
  EXPECT_EQ(scalar_sink.trace(), wave_sink.trace()) << what;
}

TEST(WaveOrder, MergeEqualsFullSortAcrossChunks) {
  const Network b8 = make_bitonic(8);
  const Network b32 = make_bitonic(32);
  WaveOrder order;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    for (int variant = 0; variant < 3; ++variant) {
      TimedExecution exec = seed == 3 ? make_sweep_exec(b32, 8, 128, seed)
                                      : make_sweep_exec(b8, 16, 128, seed);
      ASSERT_GE(num_steps(exec), 3 * kWaveChunk);
      if (variant >= 1) shuffle_plans(exec, seed);
      if (variant == 2) spread_processes(exec, {0, 7, 1u << 20});
      ASSERT_EQ(validate(exec), "");
      ASSERT_TRUE(order.build(exec));
      const std::size_t processes = seed == 3 ? 8 : 16;
      EXPECT_EQ(order.runs(), processes);
      EXPECT_EQ(order.remaining(), num_steps(exec));
      EXPECT_EQ(drain(order), sorted_steps(exec, {}))
          << "seed " << seed << " variant " << variant;
    }
  }
}

TEST(WaveOrder, StopsTrimRunsAndDropNeverIssuedTokens) {
  const Network net = make_bitonic(8);
  TimedExecution exec = make_sweep_exec(net, 16, 160, 5);
  shuffle_plans(exec, 5);
  Xoshiro256 rng(55);
  std::vector<std::uint32_t> stop(exec.plans.size(), kCompletes);
  for (std::uint32_t& s : stop) {
    switch (rng.below(6)) {
      case 0: s = 0; break;  // never issued
      case 1:
        s = static_cast<std::uint32_t>(rng.below(net.depth()) + 1);
        break;
      case 2: s = net.depth() + 3; break;  // past the counter: completes
      default: break;
    }
  }
  // Ids past the end of the overlay count as completing.
  stop.resize(stop.size() - 40);
  WaveOrder order;
  ASSERT_TRUE(order.build(exec, stop));
  const auto want = sorted_steps(exec, stop);
  ASSERT_GE(want.size(), 3 * kWaveChunk);
  EXPECT_EQ(order.remaining(), want.size());
  EXPECT_EQ(drain(order), want);
}

TEST(WaveOrder, RunBreaksExactlyAtStepOrderOverlaps) {
  const Network net = make_bitonic(8);
  WaveOrder order;
  // Back-to-back tokens (t_in == previous t_out) with the usual
  // increasing ranks are legal; an adverse rank at a late token in a
  // multi-chunk schedule is an overlap, in the scalar loop and here.
  TimedExecution exec = make_sweep_exec(net, 16, 128, 9);
  for (std::size_t i = 1; i < exec.plans.size(); ++i) {
    if (exec.plans[i].process == exec.plans[i - 1].process) {
      exec.plans[i].times[0] = exec.plans[i - 1].t_out();
    }
  }
  ASSERT_EQ(validate(exec), "");
  ASSERT_TRUE(simulate(exec).ok());
  EXPECT_TRUE(order.build(exec));

  const std::size_t victim = exec.plans.size() - 200;
  force_overlap(exec, victim);
  ASSERT_EQ(validate(exec), "");
  const SimulationResult scalar = simulate(exec);
  ASSERT_NE(scalar.error.find("step-order overlap"), std::string::npos)
      << scalar.error;
  EXPECT_FALSE(order.build(exec));
  EXPECT_EQ(order.remaining(), 0u);

  // A doomed predecessor frees its process at its drop hop, before the
  // overlapping entry: no overlap under that overlay.
  std::vector<std::uint32_t> stop(exec.plans.size(), kCompletes);
  stop[exec.plans[victim - 1].token] = 1;
  EXPECT_TRUE(order.build(exec, stop));
  // Never issued, the predecessor has no run at all.
  stop[exec.plans[victim - 1].token] = 0;
  EXPECT_TRUE(order.build(exec, stop));
}

TEST(SimulateWave, MatchesScalarAcrossChunkBoundaries) {
  const Network b8 = make_bitonic(8);
  const Network b32 = make_bitonic(32);
  struct Case {
    const Network* net;
    std::uint32_t processes, ops;
    std::string name;
  };
  // B(8) 16x64 is the sweep benchmark's shape (1.75 chunks); B(32) 8x64
  // ends exactly on a chunk boundary; the x128 shapes run 3.5 and 4.
  const std::vector<Case> cases = {{&b8, 16, 64, "B8 16x64"},
                                   {&b8, 16, 128, "B8 16x128"},
                                   {&b32, 8, 64, "B32 8x64"},
                                   {&b32, 8, 128, "B32 8x128"}};
  for (const Case& c : cases) {
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      const TimedExecution exec =
          make_sweep_exec(*c.net, c.processes, c.ops, seed);
      if (c.ops == 128) {
        ASSERT_GE(num_steps(exec), 3 * kWaveChunk);
      }
      expect_wave_equals_scalar(exec, c.name + " seed " + std::to_string(seed));
    }
  }
}

TEST(SimulateWave, MatchesScalarOnReorderedAndSparseMultiChunkPlans) {
  const Network net = make_bitonic(8);
  // Shuffled plan list.
  TimedExecution shuffled = make_sweep_exec(net, 16, 128, 11);
  shuffle_plans(shuffled, 11);
  expect_wave_equals_scalar(shuffled, "shuffled");

  // One process's plans listed in reverse time order.
  TimedExecution reversed = make_sweep_exec(net, 16, 128, 12);
  std::reverse(reversed.plans.begin() + 3 * 128, reversed.plans.begin() + 4 * 128);
  expect_wave_equals_scalar(reversed, "process 3 reversed");

  // Sparse process ids: 0, 7 and 1 << 20 (plus offsets for the rest).
  TimedExecution sparse = make_sweep_exec(net, 16, 128, 13);
  spread_processes(sparse, {0, 7, 1u << 20});
  shuffle_plans(sparse, 13);
  expect_wave_equals_scalar(sparse, "sparse processes");
  WaveOrder order;
  ASSERT_TRUE(order.build(sparse));
  EXPECT_EQ(order.runs(), 16u);
}

TEST(SimulateWave, MatchesScalarOnCrossProcessTiesAndLateOverlap) {
  const Network net = make_bitonic(8);
  // Equal times across processes: every process runs the same integer
  // schedule, ranks deciding all order.
  Xoshiro256 rng(77);
  TimedExecution ties;
  ties.net = &net;
  const std::uint32_t d = net.depth();
  for (TokenId t = 0; t < 16 * 128; ++t) {
    ties.plans.push_back(make_uniform_plan(
        t, /*process=*/t / 128, /*source=*/static_cast<std::uint32_t>(t % 8),
        d, /*t_in=*/static_cast<double>((t % 128) * d), /*delay=*/1.0,
        /*rank=*/static_cast<double>(rng.below(4)) + 8.0 * (t % 128)));
  }
  ASSERT_EQ(validate(ties), "");
  ASSERT_GE(num_steps(ties), 3 * kWaveChunk);
  ASSERT_TRUE(simulate(ties).ok());
  expect_wave_equals_scalar(ties, "cross-process ties");

  // An overlap in the third chunk: the wave path falls back, with the
  // scalar error and partial stream.
  TimedExecution late = make_sweep_exec(net, 16, 128, 14);
  force_overlap(late, 10 * 128 + 100);
  const SimulationResult scalar = simulate(late);
  ASSERT_NE(scalar.error.find("step-order overlap"), std::string::npos);
  expect_wave_equals_scalar(late, "late overlap");
}

TEST(FaultedWave, MatchesScalarAcrossChunkBoundaries) {
  const Network b8 = make_bitonic(8);
  const Network b32 = make_bitonic(32);
  fault::FaultPlan plan;
  plan.enabled = true;
  plan.p_token_loss = 0.1;
  plan.p_stuck_balancer = 0.1;
  plan.p_process_crash = 0.3;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Network& net = seed == 3 ? b32 : b8;
    TimedExecution exec = seed == 3 ? make_sweep_exec(b32, 8, 128, seed)
                                    : make_sweep_exec(b8, 16, 128, seed);
    if (seed == 2) {
      spread_processes(exec, {0, 7, 1u << 20});
      shuffle_plans(exec, seed);
    }
    const SimFaults faults =
        fault::draw_sim_faults(net, exec, plan, seed);
    ASSERT_GT(faults.tokens_lost, 0u);
    ASSERT_GT(faults.tokens_not_issued, 0u);
    expect_faulted_wave_equals_scalar(exec, faults,
                                      "faulted seed " + std::to_string(seed));
  }

  // A late overlap behind a doomed and a completing predecessor.
  TimedExecution late = make_sweep_exec(b8, 16, 128, 4);
  const std::size_t victim = 10 * 128 + 100;
  force_overlap(late, victim);
  SimFaults faults;
  faults.stuck.assign(b8.num_balancers(), false);
  faults.lost_before_hop.assign(late.plans.size(), kCompletes);
  expect_faulted_wave_equals_scalar(late, faults, "late overlap");
  SimArena arena;
  ASSERT_FALSE(simulate_with(late, arena, faults, nullptr).ok());
  faults.lost_before_hop[late.plans[victim - 1].token] = 2;
  faults.tokens_lost = 1;
  ASSERT_TRUE(simulate_with(late, arena, faults, nullptr).ok());
  expect_faulted_wave_equals_scalar(late, faults, "overlap behind a drop");
}

// ---------------------------------------------------------------------
// The bucketed windows on schedules that stress them: one instant, a
// straggler, dense clusters, extreme and denormal spans, negative times,
// and far more runs than a window holds. On each shape the order equals a full sort,
// pristine and under a fault overlay, and the wave interpreters equal
// their scalar twins. Every shape crosses at least one chunk boundary.
// ---------------------------------------------------------------------

/// Replaces each crossing time t of the plans `pick` accepts with f(t);
/// f must be non-decreasing, so the plans stay valid.
template <typename Pick, typename F>
void remap_times(TimedExecution& exec, Pick pick, F f) {
  for (TokenPlan& p : exec.plans) {
    if (!pick(p)) continue;
    for (double& t : p.times) t = f(t);
  }
}

double latest_time(const TimedExecution& exec) {
  double hi = exec.plans.front().t_out();
  for (const TokenPlan& p : exec.plans) hi = std::max(hi, p.t_out());
  return hi;
}

void expect_order_and_wave_hold(const TimedExecution& exec,
                                const std::string& what,
                                std::uint64_t seed) {
  ASSERT_EQ(validate(exec), "") << what;
  ASSERT_TRUE(simulate(exec).ok()) << what;
  ASSERT_GT(num_steps(exec), kWaveChunk) << what;
  WaveOrder order;
  ASSERT_TRUE(order.build(exec)) << what;
  EXPECT_EQ(drain(order), sorted_steps(exec, {})) << what;
  expect_wave_equals_scalar(exec, what);

  fault::FaultPlan plan;
  plan.enabled = true;
  plan.p_token_loss = 0.1;
  plan.p_stuck_balancer = 0.1;
  plan.p_process_crash = 0.3;
  const SimFaults faults =
      fault::draw_sim_faults(*exec.net, exec, plan, seed);
  ASSERT_GT(faults.tokens_lost, 0u) << what;
  ASSERT_TRUE(order.build(exec, faults.lost_before_hop)) << what;
  EXPECT_EQ(drain(order), sorted_steps(exec, faults.lost_before_hop))
      << what << " faulted";
  expect_faulted_wave_equals_scalar(exec, faults, what + " faulted");
}

TEST(WaveOrder, EveryStepAtOneInstant) {
  // 16 processes x 64 tokens, every crossing at t = 3: ranks alone order
  // the steps (increasing per process, so no overlap; integer ranks tie
  // across half the processes and leave it to token ids). One bucket
  // holds all 7168 steps, past a chunk, so the window outgrows its
  // target and carries the rest into the next chunk.
  const Network net = make_bitonic(8);
  Xoshiro256 rng(21);
  TimedExecution exec;
  exec.net = &net;
  for (TokenId t = 0; t < 16 * 64; ++t) {
    const ProcessId p = t / 64;
    const double rank = static_cast<double>(t % 64) +
                        (p % 2 == 0 ? 0.0 : rng.unit() * 0.9);
    exec.plans.push_back(make_uniform_plan(
        t, p, p % 8, net.depth(), /*t_in=*/3.0, /*delay=*/0.0, rank));
  }
  expect_order_and_wave_hold(exec, "one instant", 21);
}

TEST(WaveOrder, StragglerStretchesTheSpan) {
  // Process 0 runs 1000x slower than the rest, so most windows after the
  // others finish are nearly empty.
  const Network net = make_bitonic(8);
  TimedExecution exec = make_sweep_exec(net, 16, 128, 22);
  remap_times(
      exec, [](const TokenPlan& p) { return p.process == 0; },
      [](double t) { return t * 1000.0; });
  expect_order_and_wave_hold(exec, "straggler", 22);
}

TEST(WaveOrder, SpanNearDblMaxAndDenormalWidths) {
  const Network net = make_bitonic(8);
  const auto all = [](const TokenPlan&) { return true; };
  // Times spread over [-0.9, 0.9] * DBL_MAX: t - t_lo overflows.
  TimedExecution huge = make_sweep_exec(net, 16, 128, 23);
  const double hi = latest_time(huge);
  remap_times(huge, all, [hi](double t) {
    return (t / hi * 2.0 - 1.0) * (0.9 * std::numeric_limits<double>::max());
  });
  expect_order_and_wave_hold(huge, "near DBL_MAX", 23);

  // Every time denormal (below 2^-1040): a window's width is too, and
  // bucket count / width overflows without the power-of-two prescale.
  TimedExecution tiny = make_sweep_exec(net, 16, 128, 24);
  remap_times(tiny, all, [](double t) { return t * 0x1p-1060; });
  ASSERT_LT(latest_time(tiny), std::numeric_limits<double>::min());
  expect_order_and_wave_hold(tiny, "denormal", 24);
}

TEST(WaveOrder, NegativeTimes) {
  const Network net = make_bitonic(8);
  const auto all = [](const TokenPlan&) { return true; };
  TimedExecution below = make_sweep_exec(net, 16, 128, 25);
  remap_times(below, all, [](double t) { return t - 1e6; });
  expect_order_and_wave_hold(below, "all negative", 25);
  TimedExecution across = make_sweep_exec(net, 16, 128, 26);
  const double mid = latest_time(across) / 2;
  remap_times(across, all, [mid](double t) { return t - mid; });
  expect_order_and_wave_hold(across, "across zero", 26);
}

TEST(WaveOrder, DenseClusterInsideSparseSchedule) {
  // Processes 1..15 squeezed into 2e-6 time units at t = 1000, all
  // times distinct, inside process 0's sparse schedule: windows sized
  // for the sparse part must narrow until the cluster fits a chunk.
  const Network net = make_bitonic(8);
  TimedExecution exec = make_sweep_exec(net, 16, 128, 29);
  remap_times(
      exec, [](const TokenPlan& p) { return p.process != 0; },
      [](double t) { return 1000.0 + t * 1e-9; });
  expect_order_and_wave_hold(exec, "dense cluster", 29);

  // Every 50 time units squeezed into its first 5e-8: clusters of a few
  // hundred distinct times, each inside one bucket, straddling chunk
  // ends, so windows are cut short or narrowed to split them.
  TimedExecution clustered = make_sweep_exec(net, 16, 128, 30);
  remap_times(
      clustered, [](const TokenPlan&) { return true; },
      [](double t) {
        const double cell = 50.0 * std::floor(t / 50.0);
        return cell + (t - cell) * 1e-9;
      });
  expect_order_and_wave_hold(clustered, "clusters", 30);
}

TEST(WaveOrder, RunsFarOutnumberWindowSteps) {
  // The sim_burst shape: 4096 single-token processes entering within a
  // quarter of c_min, wire delays c_min or c_max.
  const Network net = make_bitonic(8);
  Xoshiro256 rng(27);
  TimedExecution exec;
  exec.net = &net;
  for (TokenId t = 0; t < 4096; ++t) {
    TokenPlan p;
    p.token = t;
    p.process = t;
    p.source = t % 8;
    p.rank = rng.unit();
    p.times.resize(net.depth() + 1);
    p.times[0] = rng.uniform(0.0, 0.25);
    for (std::uint32_t h = 1; h <= net.depth(); ++h) {
      p.times[h] = p.times[h - 1] + (rng.below(2) ? 1.0 : 4.0);
    }
    exec.plans.push_back(std::move(p));
  }
  WaveOrder order;
  ASSERT_TRUE(order.build(exec));
  EXPECT_EQ(order.runs(), 4096u);
  expect_order_and_wave_hold(exec, "4096 single-token processes", 27);
}

/// validate()'s error `want` for `exec`, from every interpreter entry
/// point, pristine and faulted, collecting and streaming.
void expect_rejected_everywhere(const TimedExecution& exec,
                                const std::string& want,
                                const std::string& what) {
  EXPECT_EQ(validate(exec), want) << what;
  SimArena arena;
  SimFaults faults;
  faults.stuck.assign(exec.net->num_balancers(), false);
  faults.lost_before_hop.assign(exec.plans.size(), kCompletes);
  faults.lost_before_hop[3] = 2;
  faults.tokens_lost = 1;
  EXPECT_EQ(simulate(exec).error, want) << what;
  EXPECT_EQ(simulate_wave(exec, arena).error, want) << what;
  EXPECT_EQ(simulate_with(exec, arena, faults, nullptr).error, want) << what;
  EXPECT_EQ(simulate_wave_with(exec, arena, faults, nullptr).error, want)
      << what;
  CollectSink sink;
  EXPECT_EQ(simulate_stream(exec, arena, sink).error, want) << what;
  EXPECT_EQ(simulate_wave_stream(exec, arena, sink).error, want) << what;
  EXPECT_EQ(simulate_with(exec, arena, faults, &sink).error, want)
      << what;
  EXPECT_EQ(
      simulate_wave_with(exec, arena, faults, &sink).error,
      want)
      << what;
  EXPECT_TRUE(sink.trace().empty()) << what;
}

// A non-finite crossing time or a NaN rank is a validation error on
// every interpreter: the first could stall the windows, the second
// leaves (time, rank, token) no total order, so scalar and wave part.
TEST(SimulateWave, NonFiniteTimesAndNanRanksAreRejectedEverywhere) {
  const Network net = make_bitonic(8);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {nan, inf, -inf}) {
    for (const std::uint32_t hop : {0u, 3u, net.depth()}) {
      TimedExecution exec = make_sweep_exec(net, 16, 64, 28);
      exec.plans[700].times[hop] = bad;
      expect_rejected_everywhere(
          exec, "token 700: non-finite time",
          std::to_string(bad) + " at hop " + std::to_string(hop));
    }
  }
  TimedExecution exec = make_sweep_exec(net, 16, 64, 28);
  exec.plans[700].rank = nan;
  expect_rejected_everywhere(exec, "token 700: rank is NaN", "NaN rank");
}

// ---------------------------------------------------------------------
// Engine: RunSpec::wave_exec flips the interpreter, nothing else.
// ---------------------------------------------------------------------

void expect_same_sweep_json(engine::SweepSpec sweep) {
  sweep.base.wave_exec = false;
  sweep.threads = 1;
  const engine::SweepStats stats = engine::sweep_stats(sweep);
  EXPECT_EQ(stats.errors, 0u) << stats.first_error;
  const std::string scalar1 = engine::to_json(stats);
  sweep.base.wave_exec = true;
  const std::string wave1 = engine::to_json(engine::sweep_stats(sweep));
  sweep.threads = 4;
  const std::string wave4 = engine::to_json(engine::sweep_stats(sweep));
  EXPECT_EQ(scalar1, wave1);
  EXPECT_EQ(scalar1, wave4);
}

/// sim_burst's multi-chunk shape: 8 bursts of 256 one-token processes on
/// B(8) is 14336 steps, three and a half wave chunks, so the step order
/// cuts windows inside every trial.
engine::SweepSpec burst_sweep() {
  engine::SweepSpec sweep;
  sweep.base.backend = "sim_burst";
  sweep.base.network = "bitonic";
  sweep.base.width = 8;
  sweep.base.bursts = 8;
  sweep.base.burst_size = 256;
  sweep.base.seed = 0xB0B;
  sweep.trials = 6;
  return sweep;
}

/// Every simulated-network fault at once.
fault::FaultPlan mixed_faults() {
  fault::FaultPlan plan;
  plan.enabled = true;
  plan.p_token_loss = 0.15;
  plan.p_stuck_balancer = 0.1;
  plan.p_process_crash = 0.1;
  return plan;
}

TEST(EngineWaveExec, SweepJsonIdenticalPristine) {
  engine::SweepSpec sweep;
  sweep.base.network = "bitonic";
  sweep.base.width = 8;
  sweep.base.c_max = 3.0;
  sweep.base.seed = 0xABCD;
  sweep.trials = 48;
  expect_same_sweep_json(sweep);
  expect_same_sweep_json(burst_sweep());
}

TEST(EngineWaveExec, SweepJsonIdenticalStreaming) {
  engine::SweepSpec sweep;
  sweep.base.network = "periodic";
  sweep.base.width = 8;
  sweep.base.c_max = 3.0;
  sweep.base.seed = 0x1234;
  sweep.base.keep_trace = false;  // native streaming path
  sweep.trials = 48;
  expect_same_sweep_json(sweep);
  engine::SweepSpec burst = burst_sweep();
  burst.base.keep_trace = false;
  expect_same_sweep_json(burst);
}

TEST(EngineWaveExec, SweepJsonIdenticalFaulted) {
  engine::SweepSpec sweep;
  sweep.base.network = "bitonic";
  sweep.base.width = 8;
  sweep.base.seed = 0x5678;
  sweep.base.fault = mixed_faults();
  sweep.trials = 48;
  expect_same_sweep_json(sweep);
  engine::SweepSpec burst = burst_sweep();
  burst.base.fault = mixed_faults();
  expect_same_sweep_json(burst);
  burst.base.keep_trace = false;
  expect_same_sweep_json(burst);
}

TEST(EngineWaveExec, WaveAndOptimizerBackendsRerunIdentical) {
  // wave_exec re-runs the built adversarial schedule through the wave
  // interpreter and re-analyzes it: same sweep JSON, without faults and
  // under every simulated-network fault.
  engine::SweepSpec sweep;
  sweep.base.backend = "wave";
  sweep.base.network = "bitonic";
  sweep.base.width = 16;
  sweep.base.ell = 2;
  sweep.trials = 4;
  expect_same_sweep_json(sweep);
  sweep.base.fault = mixed_faults();
  expect_same_sweep_json(sweep);
  sweep.base.fault = fault::FaultPlan{};
  sweep.base.backend = "optimizer";
  sweep.base.width = 8;
  sweep.base.opt_iterations = 40;
  sweep.trials = 2;
  expect_same_sweep_json(sweep);
  sweep.base.fault = mixed_faults();
  expect_same_sweep_json(sweep);
}

TEST(EngineWaveExec, WaveBackendFaultRerunIdentical) {
  // The wave/optimizer backends re-interpret their built schedule under
  // the overlay without a shared arena; wave_exec must not change the
  // result.
  engine::RunSpec spec;
  spec.backend = "wave";
  spec.network = "bitonic";
  spec.width = 8;
  spec.ell = 1;
  spec.seed = 5;
  spec.fault.enabled = true;
  spec.fault.p_token_loss = 0.2;
  const engine::RunResult scalar = engine::run_backend(spec);
  spec.wave_exec = true;
  const engine::RunResult wave = engine::run_backend(spec);
  ASSERT_TRUE(scalar.ok()) << scalar.error;
  ASSERT_TRUE(wave.ok()) << wave.error;
  ASSERT_EQ(scalar.trace.size(), wave.trace.size());
  for (std::size_t i = 0; i < scalar.trace.size(); ++i) {
    EXPECT_EQ(scalar.trace[i], wave.trace[i]);
  }
  EXPECT_EQ(scalar.metrics, wave.metrics);
}

}  // namespace
}  // namespace cn
