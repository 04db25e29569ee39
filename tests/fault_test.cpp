// Fault-injection layer: zero-fault identity (the fault code must be
// invisible until asked for), deterministic faulted replays, degradation
// accounting, the sweep watchdog (a hung backend is abandoned as a
// "timeout" without disturbing the other trials), bounded deterministic
// retry, and the error taxonomy end to end.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <iterator>
#include <chrono>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>

#include "concurrent/concurrent_network.hpp"
#include "concurrent/harness.hpp"
#include "core/constructions.hpp"
#include "engine/engine.hpp"
#include "fault/fault.hpp"
#include "fault/faulted_sim.hpp"
#include "msg/service.hpp"
#include "sim/simulator.hpp"
#include "sim/workload.hpp"
#include "util/rng.hpp"

namespace {

using namespace cn;

// ---------------------------------------------------------------------
// Mock backends for watchdog / retry / taxonomy tests. Registered once;
// behavior is steered through the g_* globals, which each test sets
// before sweeping (the sweeper only reads them).
// ---------------------------------------------------------------------
std::atomic<std::uint64_t> g_hang_seed{0};  ///< Seed the hang mock sleeps on.
std::set<std::uint64_t> g_flaky_fail_seeds;  ///< Seeds the flaky mock fails on.

engine::RunResult tiny_ok_result() {
  engine::RunResult out;
  for (std::uint64_t i = 0; i < 2; ++i) {
    TokenRecord rec;
    rec.token = static_cast<TokenId>(i);
    rec.process = static_cast<ProcessId>(i);
    rec.source = 0;
    rec.sink = 0;
    rec.value = i;
    rec.t_in = static_cast<double>(2 * i);
    rec.t_out = static_cast<double>(2 * i + 1);
    rec.first_seq = 2 * i;
    rec.last_seq = 2 * i + 1;
    out.trace.push_back(rec);
  }
  return out;
}

class HangMockBackend final : public engine::TraceSource {
 public:
  std::string name() const override { return "hang_mock"; }
  engine::RunResult run(const engine::RunSpec& spec) const override {
    if (spec.seed == g_hang_seed.load()) {
      // A genuinely hung trial: the watchdog must abandon this thread.
      // It sleeps far past any test horizon and is killed with the
      // process while still blocked.
      std::this_thread::sleep_for(std::chrono::hours(1));
    }
    return tiny_ok_result();
  }
};

class FlakyMockBackend final : public engine::TraceSource {
 public:
  std::string name() const override { return "flaky_mock"; }
  engine::RunResult run(const engine::RunSpec& spec) const override {
    if (g_flaky_fail_seeds.count(spec.seed) > 0) {
      engine::RunResult out;
      out.error = "transient failure (mock)";
      return out;
    }
    return tiny_ok_result();
  }
};

class ThrowingMockBackend final : public engine::TraceSource {
 public:
  std::string name() const override { return "throwing_mock"; }
  engine::RunResult run(const engine::RunSpec&) const override {
    throw std::runtime_error("kaboom");
  }
};

void register_mocks() {
  static const bool once = [] {
    engine::register_backend(
        "hang_mock", [] { return std::make_unique<HangMockBackend>(); });
    engine::register_backend(
        "flaky_mock", [] { return std::make_unique<FlakyMockBackend>(); });
    engine::register_backend(
        "throwing_mock", [] { return std::make_unique<ThrowingMockBackend>(); });
    return true;
  }();
  (void)once;
}

// ---------------------------------------------------------------------
// FaultStream / fault_seed
// ---------------------------------------------------------------------
TEST(FaultStream, ZeroProbabilityConsumesNoRandomness) {
  fault::FaultPlan plan;
  plan.seed = 7;
  fault::FaultStream a(plan, 42);
  fault::FaultStream b(plan, 42);
  // A thousand zero-probability flips must not advance the stream.
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(a.flip(0.0));
  EXPECT_EQ(a.pick(0, 1u << 30), b.pick(0, 1u << 30));
}

TEST(FaultStream, SeedDerivationSeparatesStreams) {
  EXPECT_EQ(fault::fault_seed(1, 2, 0), fault::fault_seed(1, 2, 0));
  EXPECT_NE(fault::fault_seed(1, 2, 0), fault::fault_seed(1, 3, 0));
  EXPECT_NE(fault::fault_seed(1, 2, 0), fault::fault_seed(2, 2, 0));
  EXPECT_NE(fault::fault_seed(1, 2, 0), fault::fault_seed(1, 2, 1));
}

TEST(FaultPlan, ActivityPredicates) {
  fault::FaultPlan plan;
  EXPECT_FALSE(plan.active());
  plan.p_token_loss = 0.5;
  EXPECT_FALSE(plan.active()) << "disabled plan must stay inert";
  plan.enabled = true;
  EXPECT_TRUE(plan.active());
  EXPECT_TRUE(plan.sim_faults());
  EXPECT_FALSE(plan.thread_faults());
}

// ---------------------------------------------------------------------
// Degradation accounting
// ---------------------------------------------------------------------
Trace trace_with_values(const std::vector<Value>& values,
                        std::uint32_t fan_out) {
  Trace t;
  for (std::size_t i = 0; i < values.size(); ++i) {
    TokenRecord rec;
    rec.token = static_cast<TokenId>(i);
    rec.value = values[i];
    rec.sink = static_cast<std::uint32_t>(values[i] % fan_out);
    t.push_back(rec);
  }
  return t;
}

TEST(Degradation, CleanTraceHasNoViolations) {
  const fault::Degradation d =
      fault::degradation(trace_with_values({0, 1, 2, 3, 4, 5, 6, 7}, 4), 4);
  EXPECT_EQ(d.counting_violation, 0.0);
  EXPECT_LE(d.smoothness_gap, 1.0);
  EXPECT_EQ(d.smoothness_violation, 0.0);
}

TEST(Degradation, MissingValueViolatesCounting) {
  // Values {0,1,3,4}: 2 is missing -> not the set {0..3}.
  const fault::Degradation d =
      fault::degradation(trace_with_values({0, 1, 3, 4}, 4), 4);
  EXPECT_EQ(d.counting_violation, 1.0);
}

TEST(Degradation, SinkSkewViolatesSmoothness) {
  // All four tokens exit sink 0 (values 0, 4, 8, 12 with fan_out 4):
  // sink 0 count 4, sinks 1..3 count 0 -> gap 4 > 1.
  const fault::Degradation d =
      fault::degradation(trace_with_values({0, 4, 8, 12}, 4), 4);
  EXPECT_EQ(d.smoothness_gap, 4.0);
  EXPECT_EQ(d.smoothness_violation, 1.0);
  EXPECT_EQ(d.counting_violation, 1.0);  // {0,4,8,12} != {0,1,2,3}
}

// ---------------------------------------------------------------------
// Faulted interpreter: zero-fault identity and deterministic damage
// ---------------------------------------------------------------------
TEST(FaultedSim, EmptyOverlayMatchesSimulate) {
  for (const std::uint64_t seed : {1ull, 99ull, 0xBEEFull}) {
    const Network net = make_bitonic(8);
    WorkloadSpec wl;
    wl.processes = 6;
    wl.tokens_per_process = 5;
    wl.c_max = 2.75;
    Xoshiro256 rng(seed);
    const TimedExecution exec = generate_workload(net, wl, rng);

    const SimulationResult ref = simulate(exec);
    ASSERT_TRUE(ref.ok());

    SimFaults none;
    none.lost_before_hop.assign(exec.plans.size(), kCompletes);
    none.stuck.assign(net.num_balancers(), false);
    SimArena arena;
    const SimulationResult faulted = simulate_with(exec, arena, none, nullptr);
    ASSERT_TRUE(faulted.ok()) << faulted.error;

    ASSERT_EQ(faulted.trace.size(), ref.trace.size());
    for (std::size_t i = 0; i < ref.trace.size(); ++i) {
      EXPECT_EQ(faulted.trace[i].token, ref.trace[i].token);
      EXPECT_EQ(faulted.trace[i].process, ref.trace[i].process);
      EXPECT_EQ(faulted.trace[i].sink, ref.trace[i].sink);
      EXPECT_EQ(faulted.trace[i].value, ref.trace[i].value);
      EXPECT_DOUBLE_EQ(faulted.trace[i].t_in, ref.trace[i].t_in);
      EXPECT_DOUBLE_EQ(faulted.trace[i].t_out, ref.trace[i].t_out);
      EXPECT_EQ(faulted.trace[i].first_seq, ref.trace[i].first_seq);
      EXPECT_EQ(faulted.trace[i].last_seq, ref.trace[i].last_seq);
    }
  }
}

TEST(FaultedSim, DrawIsDeterministic) {
  const Network net = make_bitonic(8);
  WorkloadSpec wl;
  wl.processes = 8;
  wl.tokens_per_process = 6;
  Xoshiro256 rng(5);
  const TimedExecution exec = generate_workload(net, wl, rng);
  fault::FaultPlan plan;
  plan.enabled = true;
  plan.seed = 3;
  plan.p_token_loss = 0.2;
  plan.p_stuck_balancer = 0.1;
  plan.p_process_crash = 0.15;
  const SimFaults a = fault::draw_sim_faults(net, exec, plan, 77);
  const SimFaults b = fault::draw_sim_faults(net, exec, plan, 77);
  EXPECT_EQ(a.lost_before_hop, b.lost_before_hop);
  EXPECT_EQ(a.stuck, b.stuck);
  EXPECT_EQ(a.tokens_lost, b.tokens_lost);
  EXPECT_EQ(a.tokens_not_issued, b.tokens_not_issued);
  EXPECT_EQ(a.balancers_stuck, b.balancers_stuck);
  EXPECT_EQ(a.processes_crashed, b.processes_crashed);
  // And a different run seed draws different faults.
  const SimFaults c = fault::draw_sim_faults(net, exec, plan, 78);
  EXPECT_NE(a.lost_before_hop, c.lost_before_hop);
}

TEST(FaultedSim, LossRemovesExactlyTheDoomedTokens) {
  const Network net = make_bitonic(8);
  WorkloadSpec wl;
  wl.processes = 8;
  wl.tokens_per_process = 8;
  Xoshiro256 rng(11);
  const TimedExecution exec = generate_workload(net, wl, rng);
  fault::FaultPlan plan;
  plan.enabled = true;
  plan.p_token_loss = 0.25;
  const SimFaults faults = fault::draw_sim_faults(net, exec, plan, 11);
  ASSERT_GT(faults.tokens_lost, 0u);
  SimArena arena;
  const SimulationResult res = simulate_with(exec, arena, faults, nullptr);
  ASSERT_TRUE(res.ok()) << res.error;
  EXPECT_EQ(res.trace.size(),
            exec.plans.size() - faults.tokens_lost - faults.tokens_not_issued);
  // Completed tokens are reported in plan order with their own ids.
  std::set<TokenId> doomed;
  for (std::size_t i = 0; i < faults.lost_before_hop.size(); ++i) {
    if (faults.lost_before_hop[i] != kCompletes) {
      doomed.insert(exec.plans[i].token);
    }
  }
  for (const TokenRecord& rec : res.trace) {
    EXPECT_EQ(doomed.count(rec.token), 0u);
  }
}

// ---------------------------------------------------------------------
// Fault semantics pinned outside the interpreters: hand-checked values
// and byte-level digests, each run through all four faulted entry points
// ({scalar, wave} x {collect, stream}).
// ---------------------------------------------------------------------

/// The traces of the four faulted entry points: collect[0] / stream[0]
/// from the scalar interpreter, collect[1] / stream[1] from the wave one.
struct FaultedRuns {
  std::vector<Trace> collect;
  std::vector<Trace> stream;
};

FaultedRuns run_faulted_everywhere(const TimedExecution& exec,
                                   const SimFaults& faults) {
  SimArena arena;
  CollectSink scalar_sink, wave_sink;
  const auto scalar = simulate_with(exec, arena, faults, nullptr);
  const auto wave = simulate_wave_with(exec, arena, faults, nullptr);
  const auto scalar_stream = simulate_with(exec, arena, faults, &scalar_sink);
  const auto wave_stream = simulate_wave_with(exec, arena, faults, &wave_sink);
  EXPECT_TRUE(scalar.ok()) << scalar.error;
  EXPECT_TRUE(wave.ok()) << wave.error;
  EXPECT_TRUE(scalar_stream.ok()) << scalar_stream.error;
  EXPECT_TRUE(wave_stream.ok()) << wave_stream.error;
  return {{scalar.trace, wave.trace}, {scalar_sink.trace(), wave_sink.trace()}};
}

struct Expected {
  TokenId token;
  std::uint32_t sink;
  Value value;
  std::uint64_t first_seq;
  std::uint64_t last_seq;
};

void expect_records(const Trace& trace, const std::vector<Expected>& want,
                    const std::string& what) {
  ASSERT_EQ(trace.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(trace[i].token, want[i].token) << what << " record " << i;
    EXPECT_EQ(trace[i].sink, want[i].sink) << what << " record " << i;
    EXPECT_EQ(trace[i].value, want[i].value) << what << " record " << i;
    EXPECT_EQ(trace[i].first_seq, want[i].first_seq) << what << " record " << i;
    EXPECT_EQ(trace[i].last_seq, want[i].last_seq) << what << " record " << i;
  }
}

void expect_everywhere(const FaultedRuns& runs,
                       const std::vector<Expected>& want) {
  const char* names[] = {"scalar", "wave"};
  for (int i = 0; i < 2; ++i) {
    expect_records(runs.collect[i], want, std::string(names[i]) + " collect");
    expect_records(runs.stream[i], want, std::string(names[i]) + " stream");
  }
}

TEST(FaultedSim, StuckBalancerSendsEveryTokenToSinkZero) {
  // B(2) is one (2,2) balancer. Wedged at its initial position it sends
  // every token out of port 0, so counter 0 hands out 0, 2, 4, ... in
  // arrival order. The tokens run one after another (two steps each).
  const Network net = make_bitonic(2);
  ASSERT_EQ(net.num_balancers(), 1u);
  ASSERT_EQ(net.depth(), 1u);
  TimedExecution exec;
  exec.net = &net;
  for (TokenId k = 0; k < 6; ++k) {
    exec.plans.push_back(make_uniform_plan(k, k % 3, k % 2, 1, 10.0 * k, 1.0,
                                           0.0));
  }
  SimFaults faults;
  faults.lost_before_hop.assign(6, kCompletes);
  faults.stuck = {true};
  faults.balancers_stuck = 1;
  expect_everywhere(run_faulted_everywhere(exec, faults),
                    {{0, 0, 0, 0, 1},
                     {1, 0, 2, 2, 3},
                     {2, 0, 4, 4, 5},
                     {3, 0, 6, 6, 7},
                     {4, 0, 8, 8, 9},
                     {5, 0, 10, 10, 11}});
}

TEST(FaultedSim, TokenLostBeforeHopOneSkewsLaterValues) {
  // B(4) as make_bitonic(4) wires it (lines 0..3, port 0 = upper line):
  //   layer 1: A(0,1)   B(2,3)
  //   layer 2: C(0,3)   D(1,2)
  //   layer 3: E(0,1) -> lines 0,1   F(3,2) -> lines 2,3
  // Counter j hands out j, j+4, j+8, ... Eight tokens enter on wire 0
  // one after another; token 1 toggles A and vanishes before hop 1, so
  // A's parity flips relative to the pristine run:
  //   t0: A0 C0 E0 -> counter 0 = 0      t1: A1, lost (1 step)
  //   t2: A0 C1 F0 -> counter 2 = 2      t3: A1 D0 E1 -> counter 1 = 1
  //   t4: A0 C0 E0 -> counter 0 = 4      t5: A1 D1 F1 -> counter 3 = 3
  //   t6: A0 C1 F0 -> counter 2 = 6      t7: A1 D0 E1 -> counter 1 = 5
  // (Xn = balancer X toggled out of port n.) Completed tokens take four
  // steps each; the lost token's one step takes seq 4, its drop none.
  const Network net = make_bitonic(4);
  ASSERT_EQ(net.depth(), 3u);
  TimedExecution exec;
  exec.net = &net;
  for (TokenId k = 0; k < 8; ++k) {
    exec.plans.push_back(make_uniform_plan(k, 0, 0, 3, 10.0 * k, 1.0, 0.0));
  }
  SimFaults faults;
  faults.lost_before_hop.assign(8, kCompletes);
  faults.lost_before_hop[1] = 1;
  faults.stuck.assign(net.num_balancers(), false);
  faults.tokens_lost = 1;
  expect_everywhere(run_faulted_everywhere(exec, faults),
                    {{0, 0, 0, 0, 3},
                     {2, 2, 2, 5, 8},
                     {3, 1, 1, 9, 12},
                     {4, 0, 4, 13, 16},
                     {5, 3, 3, 17, 20},
                     {6, 2, 6, 21, 24},
                     {7, 1, 5, 25, 28}});
}

/// FNV-1a over every field of every record, in trace order.
std::uint64_t fnv1a(const Trace& trace) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xFF;
      h *= 0x100000001b3ull;
    }
  };
  mix(trace.size());
  for (const TokenRecord& r : trace) {
    mix(r.token);
    mix(r.process);
    mix(r.source);
    mix(r.sink);
    mix(r.value);
    mix(std::bit_cast<std::uint64_t>(r.t_in));
    mix(std::bit_cast<std::uint64_t>(r.t_out));
    mix(r.first_seq);
    mix(r.last_seq);
  }
  return h;
}

TEST(FaultedSim, GoldenDigests) {
  // Digests of faulted traces, recorded before the scalar and wave
  // interpreters shared one hop of code: any change to what a faulted
  // run emits, byte for byte, shows here.
  struct Golden {
    const char* net;
    const char* mix;
    std::uint64_t seed;
    std::uint64_t collect;
    std::uint64_t stream;
  };
  static constexpr Golden kGolden[] = {
      {"bitonic8", "loss", 1, 0x0ada3f44789af62full,
       0xfaa11f8e53a9ca93ull},
      {"bitonic8", "loss", 2, 0x3157fa5ca1025406ull,
       0x7bc6264d68e48bfeull},
      {"bitonic8", "loss", 3, 0xc02a6109d5d44c9eull,
       0xc4a1cfa479270382ull},
      {"bitonic8", "stuck", 1, 0x95d2ea37a6c9975aull,
       0x148137b87d05e902ull},
      {"bitonic8", "stuck", 2, 0xe7bda6ac9e524cf2ull,
       0xd1efa7dce4e92f8eull},
      {"bitonic8", "stuck", 3, 0xd4f305ccbdf0448eull,
       0xc6d950c257897ba6ull},
      {"bitonic8", "crash", 1, 0x0218390a1f759860ull,
       0x2a251ab2f41be2f0ull},
      {"bitonic8", "crash", 2, 0x4c2d03c91a50d751ull,
       0x7879b5dfbaa2ddc5ull},
      {"bitonic8", "crash", 3, 0xdd2216e8f907b96cull,
       0x186b44534e07db68ull},
      {"bitonic8", "mixed", 1, 0x4a7cfcbe66ff41bbull,
       0x3ad106f8f609459bull},
      {"bitonic8", "mixed", 2, 0x271801b0c705f2c0ull,
       0xec683b1c6e424298ull},
      {"bitonic8", "mixed", 3, 0x4612d16404e5230cull,
       0xe4abae7cb97c79e4ull},
      {"periodic8", "loss", 1, 0x6c88ee265a1a66f4ull,
       0xeb51b0307984b0c8ull},
      {"periodic8", "loss", 2, 0x5443056627c5c956ull,
       0xfe40d0add16e61beull},
      {"periodic8", "loss", 3, 0x55fb1b1e6ca4306bull,
       0xeecfc200a5f8e8b7ull},
      {"periodic8", "stuck", 1, 0xb7dafb87009cc1ccull,
       0x15191d03c38c4a80ull},
      {"periodic8", "stuck", 2, 0x4e0a067629be548dull,
       0x5f508de06f864129ull},
      {"periodic8", "stuck", 3, 0x3916784c55c17344ull,
       0xc946d9d0d6f346acull},
      {"periodic8", "crash", 1, 0x315759e50575b93eull,
       0x7bd30462983abbceull},
      {"periodic8", "crash", 2, 0xdddda71f3bb10bd1ull,
       0xb41c907b64c6729dull},
      {"periodic8", "crash", 3, 0x8e2fa1b13c7b27c4ull,
       0x529974d815260bc0ull},
      {"periodic8", "mixed", 1, 0xc63bcef9aff9199bull,
       0x133aaa63364301b3ull},
      {"periodic8", "mixed", 2, 0x7b0755789f0065d3ull,
       0x4ffff3de21a49217ull},
      {"periodic8", "mixed", 3, 0x92fba869dd92bc74ull,
       0xf158460c87cf4754ull},
      {"tree8", "loss", 1, 0x365e68ae6118a118ull,
       0x9aca425a363894d8ull},
      {"tree8", "loss", 2, 0xea1ad63da6679c57ull,
       0xf26eb4dd26861d5bull},
      {"tree8", "loss", 3, 0x5677a0239b2c2c2eull,
       0xe202b5048b8c49aaull},
      {"tree8", "stuck", 1, 0x2b4cc36cdba6bf6full,
       0x328ebd818e9fa76bull},
      {"tree8", "stuck", 2, 0xf7af5364e47cc85cull,
       0x30558a9aa21078dcull},
      {"tree8", "stuck", 3, 0x9359f1d3e6a2b760ull,
       0xc7da4bd890fd8e70ull},
      {"tree8", "crash", 1, 0x59f27a3fe4619187ull,
       0x080cb24b9553c59full},
      {"tree8", "crash", 2, 0xd080f891e01a1b7eull,
       0x2736e705bd6a76deull},
      {"tree8", "crash", 3, 0xa20b651a25479880ull,
       0x638e6bd7a070aafcull},
      {"tree8", "mixed", 1, 0x8e99440eba2e84b6ull,
       0xe0601322f1460a36ull},
      {"tree8", "mixed", 2, 0xdb609c4bde477be7ull,
       0x34442a38cc1a8a53ull},
      {"tree8", "mixed", 3, 0xb8a499777cd86d78ull,
       0x530cb535f99dcd6cull},
  };
  struct Net {
    Network net;
    const char* name;
  };
  const Net nets[] = {{make_bitonic(8), "bitonic8"},
                      {make_periodic(8), "periodic8"},
                      {make_counting_tree(8), "tree8"}};
  const char* mixes[] = {"loss", "stuck", "crash", "mixed"};
  std::size_t k = 0;
  std::uint64_t lost = 0, stuck = 0, crashed = 0;
  for (const Net& n : nets) {
    for (const char* mix : mixes) {
      const std::string m = mix;
      fault::FaultPlan plan;
      plan.enabled = true;
      plan.seed = 0x60D;
      plan.p_token_loss = m == "loss" ? 0.15 : m == "mixed" ? 0.1 : 0.0;
      plan.p_stuck_balancer = m == "stuck" ? 0.2 : m == "mixed" ? 0.1 : 0.0;
      plan.p_process_crash = m == "crash" ? 0.3 : m == "mixed" ? 0.15 : 0.0;
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        WorkloadSpec wl;
        wl.processes = 16;
        wl.tokens_per_process = 48;
        wl.c_max = 3.0;
        Xoshiro256 rng(seed);
        const TimedExecution exec = generate_workload(n.net, wl, rng);
        const SimFaults faults =
            fault::draw_sim_faults(n.net, exec, plan, seed);
        lost += faults.tokens_lost;
        stuck += faults.balancers_stuck;
        crashed += faults.processes_crashed;
        const FaultedRuns runs = run_faulted_everywhere(exec, faults);
        ASSERT_LT(k, std::size(kGolden));
        const Golden& g = kGolden[k++];
        const std::string what = std::string(n.name) + " " + mix +
                                 " seed " + std::to_string(seed);
        ASSERT_EQ(std::string(g.net) + " " + g.mix + " seed " +
                      std::to_string(g.seed),
                  what);
        for (int i = 0; i < 2; ++i) {
          EXPECT_EQ(fnv1a(runs.collect[i]), g.collect) << what << " " << i;
          EXPECT_EQ(fnv1a(runs.stream[i]), g.stream) << what << " " << i;
        }
      }
    }
  }
  EXPECT_EQ(k, std::size(kGolden));
  EXPECT_GT(lost, 0u);
  EXPECT_GT(stuck, 0u);
  EXPECT_GT(crashed, 0u);
}

// ---------------------------------------------------------------------
// Backend-level zero-fault identity and deterministic faulted replays
// ---------------------------------------------------------------------
TEST(FaultBackends, EnabledZeroPlanIsByteIdenticalToDisabled) {
  engine::RunSpec pristine;
  pristine.network = "bitonic";
  pristine.width = 8;
  pristine.seed = 0xABCD;
  const engine::RunResult base = engine::run_backend(pristine);
  ASSERT_TRUE(base.ok()) << base.error;

  engine::RunSpec zeroed = pristine;
  zeroed.fault.enabled = true;  // enabled, but every probability is 0
  const engine::RunResult res = engine::run_backend(zeroed);
  ASSERT_TRUE(res.ok()) << res.error;

  ASSERT_EQ(res.trace.size(), base.trace.size());
  for (std::size_t i = 0; i < base.trace.size(); ++i) {
    EXPECT_EQ(res.trace[i].value, base.trace[i].value);
    EXPECT_DOUBLE_EQ(res.trace[i].t_in, base.trace[i].t_in);
    EXPECT_DOUBLE_EQ(res.trace[i].t_out, base.trace[i].t_out);
  }
  EXPECT_EQ(res.report.f_nl, base.report.f_nl);
  EXPECT_EQ(res.report.f_nsc, base.report.f_nsc);
  // The degradation report is present and clean at p = 0...
  EXPECT_EQ(res.metric("counting_violation", -1.0), 0.0);
  EXPECT_EQ(res.metric("smoothness_violation", -1.0), 0.0);
  // ...and absent (not merely zero) when the plan is disabled, so
  // default JSON output stays byte-identical to the pre-fault engine.
  EXPECT_EQ(base.metrics.count("counting_violation"), 0u);
}

TEST(FaultBackends, FaultedSimulatorReplaysDeterministically) {
  engine::RunSpec spec;
  spec.network = "bitonic";
  spec.width = 8;
  spec.seed = 2024;
  spec.fault.enabled = true;
  spec.fault.p_token_loss = 0.15;
  spec.fault.p_stuck_balancer = 0.1;
  const engine::RunResult a = engine::run_backend(spec);
  const engine::RunResult b = engine::run_backend(spec);
  ASSERT_TRUE(a.ok()) << a.error;
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i].token, b.trace[i].token);
    EXPECT_EQ(a.trace[i].value, b.trace[i].value);
    EXPECT_DOUBLE_EQ(a.trace[i].t_out, b.trace[i].t_out);
  }
  EXPECT_EQ(a.metrics, b.metrics);
  EXPECT_LT(a.trace.size(), 8u * 4u);  // something was actually lost
  EXPECT_GT(a.metric("fault_tokens_lost") + a.metric("fault_balancers_stuck"),
            0.0);
}

TEST(FaultBackends, MsgFaultsAreAccountedAndDeterministic) {
  engine::RunSpec spec;
  spec.backend = "msg";
  spec.network = "bitonic";
  spec.width = 4;
  spec.processes = 6;
  spec.ops_per_process = 8;
  spec.seed = 31;
  spec.fault.enabled = true;
  spec.fault.p_token_loss = 0.2;
  spec.fault.p_msg_duplicate = 0.1;
  spec.fault.p_process_crash = 0.3;
  const engine::RunResult a = engine::run_backend(spec);
  const engine::RunResult b = engine::run_backend(spec);
  ASSERT_TRUE(a.ok()) << a.error;
  EXPECT_EQ(a.trace.size(), b.trace.size());
  EXPECT_EQ(a.metrics, b.metrics);
  EXPECT_LT(a.trace.size(), 48u);
  EXPECT_GT(a.metric("fault_tokens_lost"), 0.0);
}

TEST(FaultBackends, ConcurrentFaultMixIsDeterministic) {
  const Network topo = make_bitonic(4);
  ConcurrentRunSpec spec;
  spec.threads = 4;
  spec.ops_per_thread = 50;
  spec.seed = 9;
  spec.fault.enabled = true;
  spec.fault.p_thread_stall = 0.05;
  spec.fault.stall_ns = 1000;
  spec.fault.p_thread_abandon = 0.1;
  spec.fault.p_process_crash = 0.5;

  ConcurrentNetwork net_a(topo);
  const ConcurrentRunResult a = run_recorded(net_a, spec);
  ConcurrentNetwork net_b(topo);
  const ConcurrentRunResult b = run_recorded(net_b, spec);
  ASSERT_TRUE(a.ok()) << a.error;
  // Live interleaving varies, but the injected mix must not.
  EXPECT_EQ(a.stalls, b.stalls);
  EXPECT_EQ(a.tokens_abandoned, b.tokens_abandoned);
  EXPECT_EQ(a.threads_crashed, b.threads_crashed);
  EXPECT_EQ(a.trace.size(), b.trace.size());
  EXPECT_GT(a.tokens_abandoned + a.threads_crashed, 0u);
  EXPECT_EQ(a.total_ops, a.trace.size());
}

TEST(FaultSweep, FaultedAggregatesDeterministicAcrossThreadCounts) {
  engine::SweepSpec sweep;
  sweep.base.network = "bitonic";
  sweep.base.width = 8;
  sweep.base.seed = 0xF00D;
  sweep.base.fault.enabled = true;
  sweep.base.fault.p_token_loss = 0.1;
  sweep.base.fault.p_stuck_balancer = 0.05;
  sweep.trials = 48;

  sweep.threads = 1;
  const engine::SweepStats one = engine::sweep_stats(sweep);
  sweep.threads = 6;
  const engine::SweepStats six = engine::sweep_stats(sweep);
  EXPECT_EQ(six.completed, one.completed);
  EXPECT_EQ(six.errors, one.errors);
  EXPECT_EQ(six.metric_sums, one.metric_sums);
  EXPECT_EQ(engine::to_json(six), engine::to_json(one));
  EXPECT_GT(one.metric_sums.at("counting_violation"), 0.0);
}

// ---------------------------------------------------------------------
// Watchdog
// ---------------------------------------------------------------------
TEST(FaultSweep, WatchdogAbandonsHungTrialWithoutDisturbingOthers) {
  register_mocks();
  const std::uint64_t base_seed = 0x5EED;
  // Trial 1 (of 4) hangs; the others return the tiny mock trace. With
  // retries off, the timeout must surface exactly once.
  g_hang_seed.store(engine::trial_seed(base_seed, 1));

  engine::SweepSpec sweep;
  sweep.base.backend = "hang_mock";
  sweep.base.seed = base_seed;
  sweep.trials = 4;
  sweep.threads = 2;
  sweep.timeout_ms = 200;
  const engine::SweepStats stats = engine::sweep_stats(sweep);
  g_hang_seed.store(0);

  EXPECT_EQ(stats.trials, 4u);
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.errors, 1u);
  ASSERT_EQ(stats.error_table.count("timeout"), 1u);
  EXPECT_EQ(stats.error_table.at("timeout").count, 1u);
  EXPECT_EQ(stats.error_table.at("timeout").first_trial, 1u);
  EXPECT_NE(stats.first_error.find("watchdog"), std::string::npos);
  // The surviving trials' aggregate is exactly 3 mock traces.
  EXPECT_EQ(stats.total_tokens, 3u * 2u);
}

TEST(FaultSweep, WatchdogPassesFastTrialsUntouched) {
  register_mocks();
  g_hang_seed.store(0);  // no trial seed is ever 0 in practice; none hang
  engine::SweepSpec sweep;
  sweep.base.backend = "hang_mock";
  sweep.base.seed = 123;
  sweep.trials = 6;
  sweep.threads = 3;
  sweep.timeout_ms = 5000;
  const engine::SweepStats stats = engine::sweep_stats(sweep);
  EXPECT_EQ(stats.completed, 6u);
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_TRUE(stats.error_table.empty());
}

// ---------------------------------------------------------------------
// Retry
// ---------------------------------------------------------------------
TEST(FaultSweep, RetrySeedAttemptZeroIsTrialSeed) {
  for (std::uint64_t t = 0; t < 16; ++t) {
    EXPECT_EQ(engine::retry_seed(7, t, 0), engine::trial_seed(7, t));
    EXPECT_NE(engine::retry_seed(7, t, 1), engine::trial_seed(7, t));
    EXPECT_NE(engine::retry_seed(7, t, 1), engine::retry_seed(7, t, 2));
  }
}

TEST(FaultSweep, RetryRecoversTransientFailuresDeterministically) {
  register_mocks();
  const std::uint64_t base_seed = 0xF1A2;
  const std::uint64_t trials = 8;
  g_flaky_fail_seeds.clear();
  for (std::uint64_t t = 0; t < trials; ++t) {
    // Every first attempt fails; every retry succeeds.
    g_flaky_fail_seeds.insert(engine::retry_seed(base_seed, t, 0));
  }

  engine::SweepSpec sweep;
  sweep.base.backend = "flaky_mock";
  sweep.base.seed = base_seed;
  sweep.trials = trials;
  sweep.threads = 4;
  sweep.max_retries = 1;
  const engine::SweepStats stats = engine::sweep_stats(sweep);

  EXPECT_EQ(stats.completed, trials);
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_EQ(stats.retried_trials, trials);
  EXPECT_EQ(stats.total_retries, trials);

  // Without retries the same sweep fails wholesale — and the retry
  // accounting fields stay out of the JSON when nothing was retried.
  sweep.max_retries = 0;
  const engine::SweepStats no_retry = engine::sweep_stats(sweep);
  EXPECT_EQ(no_retry.errors, trials);
  EXPECT_EQ(no_retry.retried_trials, 0u);
  EXPECT_EQ(engine::to_json(no_retry).find("retried_trials"),
            std::string::npos);
  g_flaky_fail_seeds.clear();
}

TEST(FaultSweep, RetriesAreNotWastedOnInvalidSpecs) {
  engine::SweepSpec sweep;
  sweep.base.network = "bitonic";
  sweep.base.width = 6;  // not a power of two: spec_invalid every time
  sweep.trials = 5;
  sweep.threads = 2;
  sweep.max_retries = 3;
  const engine::SweepStats stats = engine::sweep_stats(sweep);
  EXPECT_EQ(stats.errors, 5u);
  EXPECT_EQ(stats.retried_trials, 0u);
  EXPECT_EQ(stats.total_retries, 0u);
  ASSERT_EQ(stats.error_table.count("spec_invalid"), 1u);
  EXPECT_EQ(stats.error_table.at("spec_invalid").count, 5u);
}

// ---------------------------------------------------------------------
// Error taxonomy
// ---------------------------------------------------------------------
TEST(FaultTaxonomy, ThrowingBackendIsCaughtAndClassified) {
  register_mocks();
  engine::RunSpec spec;
  spec.backend = "throwing_mock";
  const engine::RunResult res = engine::run_backend(spec);
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.error_kind, engine::ErrorKind::kBackendError);
  EXPECT_NE(res.error.find("kaboom"), std::string::npos);

  engine::SweepSpec sweep;
  sweep.base = spec;
  sweep.trials = 3;
  sweep.threads = 2;
  const engine::SweepStats stats = engine::sweep_stats(sweep);
  ASSERT_EQ(stats.error_table.count("backend_error"), 1u);
  EXPECT_EQ(stats.error_table.at("backend_error").count, 3u);
}

TEST(FaultTaxonomy, InvalidSpecsAreClassifiedNotRun) {
  engine::RunSpec msg_spec;
  msg_spec.backend = "msg";
  msg_spec.network = "bitonic";
  msg_spec.width = 4;
  msg_spec.c_min = 3.0;
  msg_spec.c_max = 2.0;  // inverted latency envelope
  const engine::RunResult msg_res = engine::run_backend(msg_spec);
  EXPECT_FALSE(msg_res.ok());
  EXPECT_EQ(msg_res.error_kind, engine::ErrorKind::kSpecInvalid);
  EXPECT_NE(msg_res.error.find("c_min > c_max"), std::string::npos);

  engine::RunSpec con_spec;
  con_spec.backend = "concurrent";
  con_spec.network = "bitonic";
  con_spec.width = 4;
  con_spec.threads = 0;
  const engine::RunResult con_res = engine::run_backend(con_spec);
  EXPECT_FALSE(con_res.ok());
  EXPECT_EQ(con_res.error_kind, engine::ErrorKind::kSpecInvalid);

  engine::RunSpec hop_spec = con_spec;
  hop_spec.threads = 2;
  hop_spec.ops_per_thread = 4;
  hop_spec.hop_delay_min_ns = 100;
  hop_spec.hop_delay_max_ns = 10;  // inverted pacing envelope
  const engine::RunResult hop_res = engine::run_backend(hop_spec);
  EXPECT_FALSE(hop_res.ok());
  EXPECT_EQ(hop_res.error_kind, engine::ErrorKind::kSpecInvalid);

  // The classification reaches the JSON result shape.
  EXPECT_NE(engine::to_json(msg_res).find("\"error_kind\":\"spec_invalid\""),
            std::string::npos);
}

TEST(FaultTaxonomy, TotalLossIsClassifiedAsFaultCasualty) {
  engine::RunSpec spec;
  spec.network = "bitonic";
  spec.width = 4;
  spec.processes = 2;
  spec.ops_per_process = 1;
  spec.seed = 5;
  spec.fault.enabled = true;
  spec.fault.p_token_loss = 1.0;  // every token vanishes
  const engine::RunResult res = engine::run_backend(spec);
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.error_kind, engine::ErrorKind::kFaultInjected);
}

}  // namespace
