#include "sim/workload.hpp"

namespace cn {

TimedExecution generate_workload(const Network& net, const WorkloadSpec& spec,
                                 Xoshiro256& rng) {
  TimedExecution exec;
  exec.net = &net;
  const std::uint32_t d = net.depth();
  exec.plans.reserve(static_cast<std::size_t>(spec.processes) *
                     spec.tokens_per_process);
  TokenId next_token = 0;
  auto draw_delay = [&]() {
    if (spec.extreme_delays) {
      return rng.below(2) == 0 ? spec.c_min : spec.c_max;
    }
    return rng.uniform(spec.c_min, spec.c_max);
  };
  for (ProcessId p = 0; p < spec.processes; ++p) {
    const std::uint32_t source = p % net.fan_in();
    double t = rng.uniform(0.0, spec.initial_stagger);
    for (std::uint32_t k = 0; k < spec.tokens_per_process; ++k) {
      TokenPlan plan;
      plan.token = next_token++;
      plan.process = p;
      plan.source = source;
      // Random tie-break among simultaneous steps, but strictly
      // increasing within a process so that back-to-back tokens
      // (t_in == previous t_out) keep their step order (Section 2.2,
      // rule 3) even at the shared instant.
      plan.rank = k + rng.unit() * 0.9;
      plan.times.resize(d + 1);
      plan.times[0] = t;
      for (std::uint32_t h = 1; h <= d; ++h) {
        plan.times[h] = plan.times[h - 1] + draw_delay();
      }
      t = plan.times[d] +
          rng.uniform(spec.local_delay_min,
                      std::max(spec.local_delay_min, spec.local_delay_max));
      exec.plans.push_back(std::move(plan));
    }
  }
  return exec;
}

}  // namespace cn
