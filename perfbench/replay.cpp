// Layer replays of the traced run: each service- and core-layer class
// driven on its own, single-threaded except the eventcount ping-pong,
// so the ledger can compare what the layers cost alone with what a
// request costs inside the running service.
#include <array>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "concurrent/concurrent_network.hpp"
#include "core/compiled.hpp"
#include "core/constructions.hpp"
#include "core/sequential.hpp"
#include "core/wave.hpp"
#include "service/histogram.hpp"
#include "service/queue.hpp"
#include "service/service.hpp"
#include "util/eventcount.hpp"

namespace pb {
namespace {

/// Keeps a computed value alive without a store the optimizer could drop.
template <typename T>
inline void keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

constexpr int kRepeats = 5;

/// Median over kRepeats runs of `body`, in ns per op.
template <typename Body>
double ns_per_op(std::uint64_t ops, Body&& body) {
  std::vector<double> runs;
  for (int r = 0; r < kRepeats; ++r) {
    const std::uint64_t t0 = now_ns();
    body();
    runs.push_back(static_cast<double>(now_ns() - t0) /
                   static_cast<double>(ops));
  }
  return median(runs);
}

void replay_eventcount(LayerReplay& out) {
  cn::EventCount ec;
  constexpr std::uint64_t kCalls = 1u << 20;
  out.notify_nowaiter_ns = ns_per_op(kCalls, [&] {
    for (std::uint64_t i = 0; i < kCalls; ++i) ec.notify_if_waiters();
  });

  // Park/notify ping-pong: the waiter parks in commit_wait, the notifier
  // waits until it is registered and has had time to sleep, then stamps
  // and notifies; the sample is notify-to-running on the waiter's side.
  constexpr std::uint64_t kRounds = 1000;
  std::atomic<std::uint64_t> posted{0};
  std::atomic<std::uint64_t> acked{0};
  std::atomic<std::uint64_t> stamp{0};
  std::vector<std::uint64_t> wake_ns;
  wake_ns.reserve(kRounds);
  std::thread waiter([&] {
    for (std::uint64_t i = 1; i <= kRounds; ++i) {
      for (;;) {
        const std::uint32_t key = ec.prepare_wait();
        if (posted.load(std::memory_order_acquire) >= i) {
          ec.cancel_wait();
          break;
        }
        ec.commit_wait(key, now_ns() + 100'000'000ull);
        if (posted.load(std::memory_order_acquire) >= i) break;
      }
      wake_ns.push_back(now_ns() - stamp.load(std::memory_order_acquire));
      acked.store(i, std::memory_order_release);
    }
  });
  for (std::uint64_t i = 1; i <= kRounds; ++i) {
    while (!ec.has_waiters()) std::this_thread::yield();
    const std::uint64_t settle = now_ns() + 50'000;  // Let it reach the futex.
    while (now_ns() < settle) {
    }
    stamp.store(now_ns(), std::memory_order_release);
    posted.store(i, std::memory_order_release);
    ec.notify_all();
    while (acked.load(std::memory_order_acquire) < i) std::this_thread::yield();
  }
  waiter.join();
  out.wake_p50_us = quantile(wake_ns, 0.50) / 1e3;
  out.wake_p99_us = quantile(wake_ns, 0.99) / 1e3;
}

void replay_queue(LayerReplay& out) {
  constexpr std::size_t kCap = 4096;  // The service's default per shard.
  constexpr int kRounds = 64;
  cn::service::BoundedQueue<cn::service::Request> q(kCap);
  cn::service::Request item;
  std::vector<double> push_runs, pop_runs;
  for (int r = 0; r < kRepeats; ++r) {
    std::uint64_t push_ns = 0, pop_ns = 0;
    for (int round = 0; round < kRounds; ++round) {
      const std::uint64_t t0 = now_ns();
      for (std::size_t i = 0; i < kCap; ++i) {
        item.ticket = i;
        q.try_push(item);
      }
      const std::uint64_t t1 = now_ns();
      for (std::size_t i = 0; i < kCap; ++i) q.try_pop(item);
      const std::uint64_t t2 = now_ns();
      keep(item);
      push_ns += t1 - t0;
      pop_ns += t2 - t1;
    }
    const double ops = static_cast<double>(kCap) * kRounds;
    push_runs.push_back(static_cast<double>(push_ns) / ops);
    pop_runs.push_back(static_cast<double>(pop_ns) / ops);
  }
  out.queue_push_ns = median(push_runs);
  out.queue_pop_ns = median(pop_runs);
}

void replay_network(LayerReplay& out, std::uint32_t batch) {
  const cn::Network net = cn::make_bitonic(8);
  cn::ConcurrentNetwork cnet(net);
  constexpr std::uint64_t kTokens = 1u << 20;
  out.increment_ns = ns_per_op(kTokens, [&] {
    for (std::uint64_t i = 0; i < kTokens; ++i) keep(cnet.increment(i & 7));
  });
  const std::uint32_t k = std::max<std::uint32_t>(batch, 1);
  std::vector<cn::Value> values(k);
  const std::uint64_t calls = kTokens / k;
  out.increment_batch_ns_per_token = ns_per_op(calls * k, [&] {
    for (std::uint64_t i = 0; i < calls; ++i) {
      cnet.increment_batch(i & 7, k, values.data());
      keep(values[0]);
    }
  });
}

void replay_histogram(LayerReplay& out, std::uint64_t seed) {
  cn::Xoshiro256 rng(seed);
  std::vector<std::uint64_t> samples(1u << 20);
  for (auto& s : samples) s = 500 + rng.below(1u << 16);
  cn::service::LatencyHistogram h;
  out.histogram_record_ns = ns_per_op(samples.size(), [&] {
    for (const std::uint64_t s : samples) h.record(s);
    keep(h);
  });
}

void replay_core(LayerReplay& out) {
  constexpr std::uint32_t kW = 8;  // The sweep's and the service's width.
  constexpr std::uint64_t kTokens = 1u << 16;
  const cn::Network net = cn::make_bitonic(kW);
  cn::NetworkState state(net);
  out.compiled_ns_per_token = ns_per_op(kTokens, [&] {
    state.reset();
    for (cn::TokenId t = 0; t < kTokens; ++t) {
      keep(state.shepherd(t, t, static_cast<std::uint32_t>(t & (kW - 1))));
    }
  });

  const cn::CompiledNetwork compiled(net);
  const cn::WavePlan plan(compiled);
  const auto waves = cn::WidthWaves<kW>::try_build(plan);
  cn::CompiledState cstate(compiled);
  std::array<cn::TokenCursor, kW> wave{};
  std::array<cn::Value, kW> values{};
  out.wave_ns_per_token = ns_per_op(kTokens, [&] {
    cstate.reset();
    for (std::uint64_t b = 0; b < kTokens / kW; ++b) {
      for (std::uint32_t i = 0; i < kW; ++i) {
        wave[i] = cn::TokenCursor{waves->entry_slot(i), i};
        ++cstate.source_count[i];
      }
      for (std::uint32_t l = 0; l < waves->depth(); ++l) {
        waves->step_level(l, cstate, wave);
      }
      waves->step_counters(cstate, wave, values);
      keep(values);
    }
  });
}

}  // namespace

LayerReplay replay_layers(std::uint64_t seed, std::uint32_t batch) {
  LayerReplay out;
  replay_eventcount(out);
  replay_queue(out);
  replay_network(out, batch);
  replay_histogram(out, seed);
  replay_core(out);
  return out;
}

}  // namespace pb
