// Shared-memory implementation of counting networks (paper Section 2.7):
// balancers are records, wires are pointers, and each process shepherds
// tokens from its input wire to a counter.
//
// A balancer with fan-out f is a mod-f round-robin dispenser; advancing a
// 64-bit counter implements it (the classic shared-memory balancer). Sink
// counters stride by the network fan-out.
//
// Counter policy. How the balancer and sink words are stored and advanced
// is a template parameter of MemoryNetwork; the traversal arithmetic is
// written once and instantiated twice:
//
//   ConcurrentNetwork  (AtomicCounters) — one cache-line padded atomic
//       word per balancer and sink, advanced by fetch_add. Any number of
//       threads may cross the network at once: the regime the paper is
//       about, used by the real-thread harness, the `concurrent` engine
//       backend and the examples.
//   SerialNetwork      (PlainCounters)  — the same padded words as plain
//       uint64_t, advanced by read-add-write with no lock prefix. Exactly
//       ONE thread may write the network at a time; a handoff to another
//       thread (or a read of the totals) needs a happens-before edge such
//       as a thread join. The counting service's shard networks are this
//       case: each is written only by its shard's worker (see
//       service/service.hpp).
//
// Both instantiations hand out bit-identical values, balancer step counts
// and sink totals for the same call sequence (differentially tested).
//
// Memory ordering of the atomic policy. Balancer RMWs are RELAXED: a
// balancer's counter is pure routing state — the fetched position selects
// an output port and publishes nothing else, and the counting argument
// (every fetch_add returns a distinct position, so any m tokens through a
// fan-out-f balancer leave ceil(m/f)/floor(m/f)-balanced per port) needs
// only RMW atomicity, which relaxed provides. The sink counters KEEP
// acq_rel: the counter step is the operation's linearization point, and
// the release/acquire pairing is what orders a caller's surrounding writes
// against a later caller that observes a larger value (e.g. the
// id-allocator example). Validated under the CI TSan job.
//
// Batched traversal (increment_batch): a balancer is a mod-f dispenser,
// so k tokens occupying k CONSECUTIVE positions — obtained with ONE
// counter step of k — leave with the same per-port counts as k sequential
// single-token traversals: port (pos+i) mod f for i in [0,k). The batch
// therefore splits into at most f sub-batches per balancer and each
// sub-batch carries its whole count down its wire, for ~1 counter step
// per reached balancer per batch instead of one per token per balancer.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "core/sequential.hpp"
#include "core/topology.hpp"
#include "util/cacheline.hpp"

namespace cn {

/// Cache-line padded atomic counter, to keep balancers that are logically
/// independent from false-sharing each other.
struct alignas(kCacheLineSize) PaddedAtomic {
  std::atomic<std::uint64_t> value{0};
};

/// Counter policy for networks that many threads cross concurrently.
struct AtomicCounters {
  using Word = PaddedAtomic;

  /// Claims k consecutive positions of a balancer; returns the first.
  static std::uint64_t step_balancer(Word& w, std::uint64_t k) noexcept {
    return w.value.fetch_add(k, std::memory_order_relaxed);
  }
  /// Claims k consecutive slots of a sink counter; returns the first.
  static std::uint64_t step_sink(Word& w, std::uint64_t k) noexcept {
    return w.value.fetch_add(k, std::memory_order_acq_rel);
  }
  static std::uint64_t load(const Word& w) noexcept {
    return w.value.load(std::memory_order_relaxed);
  }
};

/// Counter policy for networks with a single writer at a time. The words
/// keep PaddedAtomic's cache-line layout, so the two policies differ only
/// in the counter step: a plain read-add-write instead of a lock-prefixed
/// fetch_add.
struct PlainCounters {
  struct alignas(kCacheLineSize) Word {
    std::uint64_t value = 0;
  };

  static std::uint64_t step_balancer(Word& w, std::uint64_t k) noexcept {
    const std::uint64_t pos = w.value;
    w.value = pos + k;
    return pos;
  }
  static std::uint64_t step_sink(Word& w, std::uint64_t k) noexcept {
    return step_balancer(w, k);
  }
  static std::uint64_t load(const Word& w) noexcept { return w.value; }
};

/// A counting network instantiated in memory, one counter word per
/// balancer and per sink; `Counters` decides who may call in concurrently
/// (see the file comment).
template <typename Counters>
class MemoryNetwork {
 public:
  explicit MemoryNetwork(const Network& net)
      : net_(&net), balancers_(net.num_balancers()), counters_(net.fan_out()) {}

  MemoryNetwork(const MemoryNetwork&) = delete;
  MemoryNetwork& operator=(const MemoryNetwork&) = delete;

  const Network& network() const noexcept { return *net_; }

  /// Shepherds one token from input wire `source` through the network and
  /// returns the value its counter assigned. One counter step per
  /// balancer plus one at the counter (wait-free with atomic counters).
  Value increment(std::uint32_t source) noexcept {
    return increment_paced(source, [](std::uint32_t) {});
  }

  /// Shepherds a batch of `k` tokens entering together on input wire
  /// `source` and writes the k values they received to out_values[0..k).
  /// Each balancer crossed performs ONE counter step of k_sub for the
  /// whole sub-batch reaching it and splits the k_sub consecutive
  /// positions across its output wires per the mod-f dispenser; each
  /// counter reached performs one step for its sub-batch and hands out
  /// consecutive strided values. Byte-compatible counting: the tokens
  /// through every balancer port — and hence every balancer's step count
  /// and every sink's total — are identical to k sequential increment()
  /// calls from the same state (differentially tested against the
  /// sequential spec). Values are written in deterministic
  /// port-round-robin DFS order; their assignment to the k callers is up
  /// to the caller (the service hands them to queued requests in order).
  /// With atomic counters: wait-free and safe to mix freely with
  /// concurrent increment() calls.
  void increment_batch(std::uint32_t source, std::uint32_t k,
                       Value* out_values) noexcept {
    if (k == 0) return;
    run_batch(net_->source_wire(source), k, out_values);
  }

  /// Like increment, but calls `pacer(hop_index)` before every node
  /// crossing (hop 0 = first balancer). Used to impose wire-delay
  /// envelopes [c_min, c_max] on real threads.
  template <typename Pacer>
  Value increment_paced(std::uint32_t source, Pacer&& pacer) noexcept {
    return increment_interruptible(source, [&](std::uint32_t hop) {
      pacer(hop);
      return true;
    });
  }

  /// Sentinel returned by increment_interruptible for an abandoned token.
  static constexpr Value kAbandonedToken = static_cast<Value>(-1);

  /// Like increment_paced, but the pacer may abort the traversal by
  /// returning false: the token is abandoned mid-network. Balancer steps
  /// already taken are NOT undone — exactly the footprint of a process
  /// that crashes between hops, leaving the network in a state other
  /// tokens must route around. Returns kAbandonedToken when aborted.
  template <typename Pacer>
  Value increment_interruptible(std::uint32_t source, Pacer&& pacer) noexcept {
    const Network& net = *net_;
    WireIndex wire = net.source_wire(source);
    std::uint32_t hop = 0;
    for (;;) {
      const Wire& w = net.wire(wire);
      if (!pacer(hop++)) return kAbandonedToken;
      if (w.to.kind == Endpoint::Kind::kBalancer) {
        const NodeIndex b = w.to.index;
        const Balancer& bal = net.balancer(b);
        const std::uint64_t pos = Counters::step_balancer(balancers_[b], 1);
        wire = bal.out[pos % bal.fan_out()];
      } else {
        const std::uint64_t k = Counters::step_sink(counters_[w.to.index], 1);
        return w.to.index + k * net.fan_out();
      }
    }
  }

  /// Tokens that have passed through balancer `b` so far (the balancer's
  /// step count). Only meaningful at quiescence.
  std::uint64_t balancer_through(NodeIndex b) const {
    return Counters::load(balancers_.at(b));
  }

  /// Snapshot of how many tokens have exited through each counter. Only
  /// meaningful at quiescence (no concurrent increments).
  std::vector<std::uint64_t> sink_counts() const;

  /// Total values handed out so far (sum of sink counts).
  std::uint64_t total() const;

 private:
  /// Shepherds a sub-batch of `k` tokens down `wire`; writes the k values
  /// to `out` and returns out + k. Recursion depth is bounded by the
  /// network depth (one frame per balancer split with >= 2 live ports).
  Value* run_batch(WireIndex wire, std::uint32_t k, Value* out) noexcept;

  const Network* net_;
  std::vector<typename Counters::Word> balancers_;
  std::vector<typename Counters::Word> counters_;
};

/// Many threads may cross it at once.
using ConcurrentNetwork = MemoryNetwork<AtomicCounters>;
/// One writer at a time; the counting service's shard network.
using SerialNetwork = MemoryNetwork<PlainCounters>;

extern template class MemoryNetwork<AtomicCounters>;
extern template class MemoryNetwork<PlainCounters>;

}  // namespace cn
