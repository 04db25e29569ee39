// Tests for the timed-execution simulator (sim/simulator).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/constructions.hpp"
#include "core/sequential.hpp"
#include "sim/simulator.hpp"
#include "sim/timed_execution.hpp"
#include "sim/workload.hpp"
#include "util/rng.hpp"

namespace cn {
namespace {

TEST(TimedExecution, ValidateAcceptsWellFormed) {
  const Network net = make_bitonic(4);
  TimedExecution exec;
  exec.net = &net;
  exec.plans.push_back(make_uniform_plan(0, 0, 0, net.depth(), 0.0, 1.0));
  exec.plans.push_back(make_uniform_plan(1, 1, 1, net.depth(), 0.5, 2.0));
  EXPECT_EQ(validate(exec), "");
}

TEST(TimedExecution, ValidateRejectsShortPlan) {
  const Network net = make_bitonic(4);
  TimedExecution exec;
  exec.net = &net;
  exec.plans.push_back(make_uniform_plan(0, 0, 0, net.depth() - 1, 0.0, 1.0));
  EXPECT_NE(validate(exec), "");
}

TEST(TimedExecution, ValidateRejectsDecreasingTimes) {
  const Network net = make_bitonic(4);
  TimedExecution exec;
  exec.net = &net;
  TokenPlan p = make_uniform_plan(0, 0, 0, net.depth(), 0.0, 1.0);
  p.times[2] = p.times[1] - 0.5;
  exec.plans.push_back(p);
  EXPECT_NE(validate(exec), "");
}

TEST(TimedExecution, ValidateRejectsOverlappingSameProcessTokens) {
  const Network net = make_bitonic(4);
  TimedExecution exec;
  exec.net = &net;
  exec.plans.push_back(make_uniform_plan(0, 7, 0, net.depth(), 0.0, 1.0));
  // Second token of process 7 enters before the first exits (t_out = 3).
  exec.plans.push_back(make_uniform_plan(1, 7, 0, net.depth(), 2.0, 1.0));
  EXPECT_NE(validate(exec), "");
}

TEST(TimedExecution, BackToBackSameProcessTokensAreLegal) {
  const Network net = make_bitonic(4);
  TimedExecution exec;
  exec.net = &net;
  exec.plans.push_back(make_uniform_plan(0, 7, 0, net.depth(), 0.0, 1.0));
  exec.plans.push_back(make_uniform_plan(1, 7, 0, net.depth(), 3.0, 1.0));
  EXPECT_EQ(validate(exec), "");
}

// validate() as first written: a hash set of seen ids, then a sort of
// every plan by (process, t_in). The reference for the differential
// test below, which pins validate()'s exact message on every input.
std::string validate_reference(const TimedExecution& exec) {
  if (exec.net == nullptr) return "no network";
  const std::size_t want = exec.net->depth() + 1;
  std::unordered_set<TokenId> seen;
  for (const TokenPlan& p : exec.plans) {
    if (p.times.size() != want) {
      return "token " + std::to_string(p.token) + ": plan has " +
             std::to_string(p.times.size()) + " times, expected " +
             std::to_string(want);
    }
    for (std::size_t k = 1; k < p.times.size(); ++k) {
      if (p.times[k] < p.times[k - 1]) {
        return "token " + std::to_string(p.token) + ": times decrease";
      }
    }
    if (p.source >= exec.net->fan_in()) {
      return "token " + std::to_string(p.token) + ": bad source wire";
    }
    if (!seen.insert(p.token).second) {
      return "duplicate token id " + std::to_string(p.token);
    }
  }
  std::vector<const TokenPlan*> by_proc(exec.plans.size());
  for (std::size_t i = 0; i < exec.plans.size(); ++i) {
    by_proc[i] = &exec.plans[i];
  }
  std::sort(by_proc.begin(), by_proc.end(),
            [](const TokenPlan* a, const TokenPlan* b) {
              if (a->process != b->process) return a->process < b->process;
              return a->t_in() < b->t_in();
            });
  for (std::size_t i = 1; i < by_proc.size(); ++i) {
    const TokenPlan* prev = by_proc[i - 1];
    const TokenPlan* cur = by_proc[i];
    if (prev->process == cur->process && cur->t_in() < prev->t_out()) {
      return "process " + std::to_string(cur->process) +
             " has overlapping tokens " + std::to_string(prev->token) + ", " +
             std::to_string(cur->token);
    }
  }
  return {};
}

TEST(TimedExecution, ValidateMatchesHashSetReference) {
  const Network net = make_bitonic(4);
  Xoshiro256 rng(2024);
  std::size_t rejected = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    TimedExecution exec;
    exec.net = &net;
    const std::uint32_t n = static_cast<std::uint32_t>(rng.below(24));
    // Three layouts: the generator's (ids and processes in order),
    // shuffled distinct ids, and colliding ids; small integer times so
    // equal t_in ties are common.
    const std::uint64_t layout = rng.below(3);
    std::vector<TokenId> ids(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      ids[i] = layout == 2 ? static_cast<TokenId>(rng.below(2 * n)) : i;
    }
    if (layout == 1) {
      for (std::uint32_t i = n; i > 1; --i) {
        std::swap(ids[i - 1], ids[rng.below(i)]);
      }
    }
    for (std::uint32_t i = 0; i < n; ++i) {
      const ProcessId proc =
          layout == 0 ? i / 4 : static_cast<ProcessId>(rng.below(4));
      const double t_in =
          layout == 0 ? 5.0 * (i % 4) + static_cast<double>(rng.below(3))
                      : static_cast<double>(rng.below(12));
      TokenPlan p = make_uniform_plan(
          ids[i], proc, static_cast<std::uint32_t>(rng.below(4)), net.depth(),
          t_in, static_cast<double>(rng.below(3)));
      switch (rng.below(150)) {
        case 0: p.times.pop_back(); break;
        case 1: p.times.back() = p.times.front() - 1.0; break;
        case 2: p.source = net.fan_in(); break;
        default: break;
      }
      exec.plans.push_back(std::move(p));
    }
    const std::string want = validate_reference(exec);
    ASSERT_EQ(validate(exec), want) << "trial " << trial;
    if (!want.empty()) ++rejected;
  }
  // Both verdicts occur often enough for the comparison to mean something.
  EXPECT_GT(rejected, 1000u);
  EXPECT_LT(rejected, 3900u);
}

TEST(Simulator, SequentialTokensGetIncreasingValues) {
  const Network net = make_bitonic(4);
  TimedExecution exec;
  exec.net = &net;
  // Five strictly sequential tokens: each enters after the previous exits.
  for (TokenId t = 0; t < 5; ++t) {
    exec.plans.push_back(
        make_uniform_plan(t, t, t % 4, net.depth(), t * 10.0, 1.0));
  }
  const SimulationResult res = simulate(exec);
  ASSERT_TRUE(res.ok()) << res.error;
  ASSERT_EQ(res.trace.size(), 5u);
  for (TokenId t = 0; t < 5; ++t) {
    EXPECT_EQ(res.trace[t].value, t);
    EXPECT_EQ(res.trace[t].token, t);
  }
}

TEST(Simulator, ValuesAreAPermutationOfZeroToN) {
  const Network net = make_periodic(8);
  TimedExecution exec;
  exec.net = &net;
  // 16 overlapping tokens with varied speeds.
  for (TokenId t = 0; t < 16; ++t) {
    exec.plans.push_back(make_uniform_plan(t, t, t % 8, net.depth(),
                                           0.1 * t, 1.0 + 0.13 * (t % 5)));
  }
  const SimulationResult res = simulate(exec);
  ASSERT_TRUE(res.ok()) << res.error;
  std::vector<Value> values;
  for (const TokenRecord& r : res.trace) values.push_back(r.value);
  std::sort(values.begin(), values.end());
  for (std::size_t i = 0; i < values.size(); ++i) EXPECT_EQ(values[i], i);
}

TEST(Simulator, RankBreaksTiesDeterministically) {
  const Network net = make_single_balancer(2, 2);
  // Two tokens crossing the balancer at the same instant: the lower rank
  // goes first and takes output port 0 (value 0).
  for (int swap = 0; swap < 2; ++swap) {
    TimedExecution exec;
    exec.net = &net;
    TokenPlan a = make_uniform_plan(0, 0, 0, net.depth(), 1.0, 1.0);
    TokenPlan b = make_uniform_plan(1, 1, 1, net.depth(), 1.0, 1.0);
    a.rank = swap == 0 ? 0.0 : 5.0;
    b.rank = swap == 0 ? 5.0 : 0.0;
    exec.plans = {a, b};
    const SimulationResult res = simulate(exec);
    ASSERT_TRUE(res.ok());
    EXPECT_EQ(res.trace[0].value, swap == 0 ? 0u : 1u);
    EXPECT_EQ(res.trace[1].value, swap == 0 ? 1u : 0u);
  }
}

TEST(Simulator, SequenceNumbersDefinePrecedence) {
  const Network net = make_bitonic(4);
  TimedExecution exec;
  exec.net = &net;
  exec.plans.push_back(make_uniform_plan(0, 0, 0, net.depth(), 0.0, 1.0));
  exec.plans.push_back(make_uniform_plan(1, 1, 0, net.depth(), 100.0, 1.0));
  const SimulationResult res = simulate(exec);
  ASSERT_TRUE(res.ok());
  EXPECT_LT(res.trace[0].last_seq, res.trace[1].first_seq);
}

TEST(Simulator, RecordsSinkAndSource) {
  const Network net = make_counting_tree(4);
  TimedExecution exec;
  exec.net = &net;
  for (TokenId t = 0; t < 4; ++t) {
    exec.plans.push_back(
        make_uniform_plan(t, t, 0, net.depth(), t * 10.0, 1.0));
  }
  const SimulationResult res = simulate(exec);
  ASSERT_TRUE(res.ok()) << res.error;
  for (TokenId t = 0; t < 4; ++t) {
    EXPECT_EQ(res.trace[t].source, 0u);
    EXPECT_EQ(res.trace[t].sink, t);  // token k lands on sink (k-1) mod w
    EXPECT_EQ(res.trace[t].value, t);
  }
}

namespace {

/// Naive reference executor: materialize every (time, rank, token, hop)
/// event upfront, sort, and replay on the sequential engine. The
/// production simulator uses a priority queue and inserts hops lazily —
/// differential testing shows they implement the same semantics.
std::vector<Value> reference_execute(const TimedExecution& exec) {
  struct Ev {
    double time;
    double rank;
    TokenId token;
    std::uint32_t hop;
  };
  std::vector<Ev> events;
  for (const TokenPlan& p : exec.plans) {
    for (std::uint32_t h = 0; h < p.times.size(); ++h) {
      events.push_back({p.times[h], p.rank, p.token, h});
    }
  }
  std::sort(events.begin(), events.end(), [](const Ev& a, const Ev& b) {
    if (a.time != b.time) return a.time < b.time;
    if (a.rank != b.rank) return a.rank < b.rank;
    if (a.token != b.token) return a.token < b.token;
    return a.hop < b.hop;
  });
  NetworkState state(*exec.net);
  std::vector<Value> values;
  TokenId max_token = 0;
  for (const TokenPlan& p : exec.plans) max_token = std::max(max_token, p.token);
  values.assign(max_token + 1, 0);
  for (const Ev& ev : events) {
    if (ev.hop == 0) {
      for (const TokenPlan& p : exec.plans) {
        if (p.token == ev.token) {
          state.enter(p.token, p.process, p.source);
          break;
        }
      }
    }
    const Step st = state.step(ev.token);
    if (st.kind == Step::Kind::kCounter) values[ev.token] = st.value;
  }
  return values;
}

}  // namespace

TEST(Simulator, DifferentialAgainstNaiveReference) {
  Xoshiro256 rng(0xD1FF);
  for (const std::uint32_t w : {4u, 8u}) {
    for (const Network& net :
         {make_bitonic(w), make_periodic(w), make_counting_tree(w)}) {
      for (int trial = 0; trial < 25; ++trial) {
        WorkloadSpec spec;
        spec.processes = 6;
        spec.tokens_per_process = 4;
        spec.c_min = 1.0;
        spec.c_max = 7.0;
        const TimedExecution exec = generate_workload(net, spec, rng);
        const SimulationResult sim = simulate(exec);
        ASSERT_TRUE(sim.ok()) << sim.error;
        const std::vector<Value> ref = reference_execute(exec);
        for (const TokenRecord& r : sim.trace) {
          ASSERT_EQ(r.value, ref[r.token])
              << net.name() << " trial " << trial << " token " << r.token;
        }
      }
    }
  }
}

TEST(Simulator, OverlappingFastTokenOvertakesSlow) {
  const Network net = make_bitonic(4);
  TimedExecution exec;
  exec.net = &net;
  // Slow token enters first; fast token enters slightly later but exits
  // first and must obtain the smaller value (non-linearizable only if a
  // third party completed in between — here it's just reordering).
  exec.plans.push_back(make_uniform_plan(0, 0, 0, net.depth(), 0.0, 10.0));
  exec.plans.push_back(make_uniform_plan(1, 1, 1, net.depth(), 1.0, 1.0));
  const SimulationResult res = simulate(exec);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.trace[1].value, 0u);
  EXPECT_EQ(res.trace[0].value, 1u);
}

}  // namespace
}  // namespace cn
