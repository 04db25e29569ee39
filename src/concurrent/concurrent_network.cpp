#include "concurrent/concurrent_network.hpp"

namespace cn {

template <typename Counters>
Value* MemoryNetwork<Counters>::run_batch(WireIndex wire, std::uint32_t k,
                                          Value* out) noexcept {
  const Network& net = *net_;
  // Walk single-successor hops iteratively; recurse only at real splits.
  for (;;) {
    const Wire& w = net.wire(wire);
    if (w.to.kind != Endpoint::Kind::kBalancer) {
      const NodeIndex sink = w.to.index;
      const std::uint64_t c = Counters::step_sink(counters_[sink], k);
      const std::uint64_t stride = net.fan_out();
      for (std::uint32_t i = 0; i < k; ++i) {
        *out++ = sink + (c + i) * stride;
      }
      return out;
    }
    const NodeIndex b = w.to.index;
    const Balancer& bal = net.balancer(b);
    const std::uint32_t f = bal.fan_out();
    const std::uint64_t pos = Counters::step_balancer(balancers_[b], k);
    if (f == 1 || k == 1) {
      // Whole batch exits one port; no split, no recursion.
      wire = bal.out[pos % f];
      continue;
    }
    // The k consecutive positions pos..pos+k-1 land on ports
    // (pos+i) mod f: starting at port pos mod f, each of the first
    // k mod f ports in round-robin order gets ceil(k/f) tokens and the
    // rest get floor(k/f).
    const std::uint32_t base = k / f;
    const std::uint32_t rem = k % f;
    const std::uint32_t start = static_cast<std::uint32_t>(pos % f);
    for (std::uint32_t d = 0; d < f; ++d) {
      const std::uint32_t kj = base + (d < rem ? 1u : 0u);
      if (kj == 0) break;  // round-robin order: counts are nonincreasing
      const std::uint32_t j = (start + d) % f;
      out = run_batch(bal.out[j], kj, out);
    }
    return out;
  }
}

template <typename Counters>
std::vector<std::uint64_t> MemoryNetwork<Counters>::sink_counts() const {
  std::vector<std::uint64_t> counts(net_->fan_out());
  for (std::uint32_t j = 0; j < net_->fan_out(); ++j) {
    counts[j] = Counters::load(counters_[j]);
  }
  return counts;
}

template <typename Counters>
std::uint64_t MemoryNetwork<Counters>::total() const {
  std::uint64_t sum = 0;
  for (const typename Counters::Word& c : counters_) sum += Counters::load(c);
  return sum;
}

template class MemoryNetwork<AtomicCounters>;
template class MemoryNetwork<PlainCounters>;

}  // namespace cn
