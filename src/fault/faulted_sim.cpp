#include "fault/faulted_sim.hpp"

#include <algorithm>
#include <cstddef>
#include <map>
#include <vector>

namespace cn::fault {

SimFaults draw_sim_faults(const Network& net, const TimedExecution& exec,
                          const FaultPlan& plan, std::uint64_t run_seed) {
  SimFaults f;
  f.stuck.assign(net.num_balancers(), false);
  TokenId max_token = 0;
  for (const TokenPlan& p : exec.plans) {
    max_token = std::max(max_token, p.token);
  }
  f.lost_before_hop.assign(static_cast<std::size_t>(max_token) + 1,
                           kCompletes);
  if (!plan.sim_faults()) return f;

  FaultStream stream(plan, run_seed);
  const std::uint32_t d = net.depth();
  // Loses the token somewhere strictly before its counter crossing but
  // after at least one balancer (a genuine mid-traversal vanish). A
  // depth-0 network has no such point: the token is simply never seen.
  const auto mid_traversal_hop = [&]() -> std::uint32_t {
    return d == 0 ? 0
                  : static_cast<std::uint32_t>(stream.pick(1, d));
  };

  // 1. Stuck balancers, ascending index.
  for (NodeIndex b = 0; b < net.num_balancers(); ++b) {
    if (stream.flip(plan.p_stuck_balancer)) {
      f.stuck[b] = true;
      ++f.balancers_stuck;
    }
  }

  // 2. Process crashes, ascending process id. The crash victim is one of
  // the process's tokens (uniform over its issue order); later tokens
  // are never issued.
  if (plan.p_process_crash > 0.0) {
    std::map<ProcessId, std::vector<TokenId>> by_process;
    for (const TokenPlan& p : exec.plans) {
      by_process[p.process].push_back(p.token);
    }
    for (const auto& [proc, tokens] : by_process) {
      if (!stream.flip(plan.p_process_crash)) continue;
      ++f.processes_crashed;
      const std::size_t victim =
          static_cast<std::size_t>(stream.pick(0, tokens.size() - 1));
      f.lost_before_hop[tokens[victim]] = mid_traversal_hop();
      if (f.lost_before_hop[tokens[victim]] > 0) ++f.tokens_lost;
      for (std::size_t k = victim + 1; k < tokens.size(); ++k) {
        f.lost_before_hop[tokens[k]] = 0;
        ++f.tokens_not_issued;
      }
    }
  }

  // 3. Independent token loss, plan order, skipping already-doomed ids.
  if (plan.p_token_loss > 0.0) {
    for (const TokenPlan& p : exec.plans) {
      if (f.lost_before_hop[p.token] != kCompletes) continue;
      if (!stream.flip(plan.p_token_loss)) continue;
      f.lost_before_hop[p.token] = mid_traversal_hop();
      if (f.lost_before_hop[p.token] > 0) {
        ++f.tokens_lost;
      } else {
        ++f.tokens_not_issued;
      }
    }
  }
  return f;
}

}  // namespace cn::fault
