#include "sim/timed_execution.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

namespace cn {

namespace {

/// Index of the first plan whose token id appeared earlier in plan
/// order, or plans.size() when all ids are distinct.
std::size_t first_duplicate(const std::vector<TokenPlan>& plans) {
  // Strictly increasing ids (the generators' layout) are distinct.
  bool increasing = true;
  for (std::size_t i = 1; i < plans.size() && increasing; ++i) {
    increasing = plans[i - 1].token < plans[i].token;
  }
  if (increasing) return plans.size();
  // Sorted by (id, index), every entry after the first of its id is a
  // repeat; the smallest such index is the first repeat in plan order.
  std::vector<std::pair<TokenId, std::size_t>> ids(plans.size());
  for (std::size_t i = 0; i < plans.size(); ++i) ids[i] = {plans[i].token, i};
  std::sort(ids.begin(), ids.end());
  std::size_t first = plans.size();
  for (std::size_t k = 1; k < ids.size(); ++k) {
    if (ids[k].first == ids[k - 1].first) {
      first = std::min(first, ids[k].second);
    }
  }
  return first;
}

}  // namespace

std::string validate(const TimedExecution& exec) {
  if (exec.net == nullptr) return "no network";
  const std::size_t want = exec.net->depth() + 1;
  const std::size_t duplicate = first_duplicate(exec.plans);
  for (std::size_t i = 0; i < exec.plans.size(); ++i) {
    const TokenPlan& p = exec.plans[i];
    if (p.times.size() != want) {
      return "token " + std::to_string(p.token) + ": plan has " +
             std::to_string(p.times.size()) + " times, expected " +
             std::to_string(want);
    }
    for (const double t : p.times) {
      if (!std::isfinite(t)) {
        return "token " + std::to_string(p.token) + ": non-finite time";
      }
    }
    if (std::isnan(p.rank)) {
      return "token " + std::to_string(p.token) + ": rank is NaN";
    }
    for (std::size_t k = 1; k < p.times.size(); ++k) {
      if (p.times[k] < p.times[k - 1]) {
        return "token " + std::to_string(p.token) + ": times decrease";
      }
    }
    if (p.source >= exec.net->fan_in()) {
      return "token " + std::to_string(p.token) + ": bad source wire";
    }
    if (i == duplicate) {
      return "duplicate token id " + std::to_string(p.token);
    }
  }
  // Per-process tokens must be totally ordered in time (no overlap),
  // checked between neighbours in (process, t_in) order.
  const auto by_proc_less = [](const TokenPlan* a, const TokenPlan* b) {
    if (a->process != b->process) return a->process < b->process;
    return a->t_in() < b->t_in();
  };
  const auto overlap = [](const TokenPlan* prev,
                          const TokenPlan* cur) -> std::string {
    if (prev->process == cur->process && cur->t_in() < prev->t_out()) {
      return "process " + std::to_string(cur->process) +
             " has overlapping tokens " + std::to_string(prev->token) +
             ", " + std::to_string(cur->token);
    }
    return {};
  };
  // Plans already strictly increasing in that order (the generators'
  // layout) are the one order any sort would produce: check them in
  // place. Otherwise sort, ties and all, exactly as always.
  bool increasing = true;
  for (std::size_t i = 1; i < exec.plans.size() && increasing; ++i) {
    increasing = by_proc_less(&exec.plans[i - 1], &exec.plans[i]);
  }
  if (increasing) {
    for (std::size_t i = 1; i < exec.plans.size(); ++i) {
      std::string problem = overlap(&exec.plans[i - 1], &exec.plans[i]);
      if (!problem.empty()) return problem;
    }
    return {};
  }
  std::vector<const TokenPlan*> by_proc(exec.plans.size());
  for (std::size_t i = 0; i < exec.plans.size(); ++i) by_proc[i] = &exec.plans[i];
  std::sort(by_proc.begin(), by_proc.end(), by_proc_less);
  for (std::size_t i = 1; i < by_proc.size(); ++i) {
    std::string problem = overlap(by_proc[i - 1], by_proc[i]);
    if (!problem.empty()) return problem;
  }
  return {};
}

TokenPlan make_uniform_plan(TokenId token, ProcessId process,
                            std::uint32_t source, std::uint32_t depth,
                            double t_in, double delay, double rank) {
  TokenPlan p;
  p.token = token;
  p.process = process;
  p.source = source;
  p.rank = rank;
  p.times.resize(depth + 1);
  for (std::uint32_t k = 0; k <= depth; ++k) p.times[k] = t_in + k * delay;
  return p;
}

}  // namespace cn
