#include "fault/faulted_sim.hpp"

#include <algorithm>
#include <cstddef>
#include <map>
#include <optional>
#include <vector>

#include "core/wave.hpp"
#include "sim/wave_order.hpp"

namespace cn::fault {

namespace {

/// Event ordering: identical to the pristine simulator's (time, rank,
/// token) total order, so the zero-fault step sequence matches exactly.
struct Event {
  double time;
  double rank;
  TokenId token;
  std::uint32_t hop;

  bool operator>(const Event& o) const {
    if (time != o.time) return time > o.time;
    if (rank != o.rank) return rank > o.rank;
    return token > o.token;
  }
};

constexpr auto event_after = [](const Event& a, const Event& b) {
  return a > b;
};

constexpr TokenId kNoToken = std::numeric_limits<TokenId>::max();

}  // namespace

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

namespace {

FaultedSimResult simulate_faulted_with(const TimedExecution& exec,
                                       const SimFaults& faults,
                                       TraceSink* sink) {
  FaultedSimResult result;
  result.error = validate(exec);
  if (!result.error.empty()) return result;

  const Network& net = *exec.net;

  TokenId max_token = 0;
  ProcessId max_process = 0;
  for (const TokenPlan& p : exec.plans) {
    if (p.token == kNoToken) {
      result.error = "token id " + std::to_string(kNoToken) + " is reserved";
      return result;
    }
    max_token = std::max(max_token, p.token);
    max_process = std::max(max_process, p.process);
  }

  const auto doom = [&](TokenId t) -> std::uint32_t {
    return t < faults.lost_before_hop.size() ? faults.lost_before_hop[t]
                                             : kCompletes;
  };

  // Dynamic network state, graph-walk flavor (reference semantics):
  // round-robin positions, next counter values, current wire per token.
  std::vector<PortIndex> balancer_pos(net.num_balancers(), 0);
  std::vector<Value> counter_next(net.fan_out());
  for (std::uint32_t j = 0; j < net.fan_out(); ++j) counter_next[j] = j;

  std::vector<const TokenPlan*> plan_of(max_token + 1, nullptr);
  // Streaming runs emit records at the counter crossing; only the collect
  // path materializes the O(tokens) records array. Completions happen in
  // seq order, but the sink contract is issue order, so emissions pass
  // through a reorder window (first_seqs come from the incrementing
  // `seq`, so IssueWindowBuffer's monotone-producer contract holds); a
  // vanishing token must drop its issue slot or it would hold back every
  // later-issued completion until flush.
  std::optional<IssueWindowBuffer> reorder;
  if (sink != nullptr) reorder.emplace(*sink);
  std::vector<TokenRecord> records(sink == nullptr ? max_token + 1 : 0);
  std::vector<std::uint64_t> first_seq_of_process(
      sink == nullptr ? 0 : max_process + 1, 0);
  std::vector<std::uint64_t> pos_of_process(
      sink == nullptr ? 0 : max_process + 1, 0);
  std::vector<WireIndex> wire_of(max_token + 1, kInvalidWire);
  std::vector<bool> completed(max_token + 1, false);
  std::vector<TokenId> in_flight_of_process(max_process + 1, kNoToken);

  std::vector<Event> heap;
  heap.reserve(exec.plans.size());
  for (const TokenPlan& p : exec.plans) {
    plan_of[p.token] = &p;
    if (doom(p.token) == 0) continue;  // never issued
    heap.push_back({p.times[0], p.rank, p.token, 0});
  }
  std::make_heap(heap.begin(), heap.end(), event_after);

  std::uint64_t seq = 0;
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), event_after);
    const Event ev = heap.back();
    heap.pop_back();
    const TokenPlan& plan = *plan_of[ev.token];

    // The token vanishes at the planned time of its first unexecuted
    // hop; its process becomes free to issue again from that point.
    // (hop > 0 always: doom == 0 tokens were never pushed on the heap,
    // so a vanishing token has an open reorder entry to drop.)
    if (ev.hop == doom(ev.token)) {
      in_flight_of_process[plan.process] = kNoToken;
      if (sink != nullptr) reorder->drop(pos_of_process[plan.process]);
      continue;
    }

    if (ev.hop == 0) {
      TokenId& slot = in_flight_of_process[plan.process];
      if (slot != kNoToken) {
        result.error = "process " + std::to_string(plan.process) +
                       " issued token " + std::to_string(plan.token) +
                       " while token " + std::to_string(slot) +
                       " was still in flight (step-order overlap)";
        return result;
      }
      slot = plan.token;
      wire_of[ev.token] = net.source_wire(plan.source);
      if (sink == nullptr) {
        records[ev.token].first_seq = seq;
      } else {
        first_seq_of_process[plan.process] = seq;
        pos_of_process[plan.process] = reorder->open();
      }
    }

    const Wire& wire = net.wire(wire_of[ev.token]);
    bool finished = false;
    Value finished_value = 0;
    std::uint32_t finished_sink = 0;
    if (wire.to.kind == Endpoint::Kind::kBalancer) {
      const NodeIndex b = wire.to.index;
      const Balancer& bal = net.balancer(b);
      const PortIndex out = balancer_pos[b];
      if (!faults.stuck[b]) {
        balancer_pos[b] = static_cast<PortIndex>((out + 1) % bal.fan_out());
      }
      wire_of[ev.token] = bal.out[out];
    } else {
      const std::uint32_t counter = wire.to.index;
      const Value v = counter_next[counter];
      counter_next[counter] += net.fan_out();
      if (sink == nullptr) {
        TokenRecord& rec = records[ev.token];
        rec.token = plan.token;
        rec.process = plan.process;
        rec.source = plan.source;
        rec.sink = counter;
        rec.value = v;
        rec.t_in = plan.t_in();
        rec.t_out = plan.t_out();
        rec.last_seq = seq;
      }
      finished_value = v;
      finished_sink = counter;
      finished = true;
    }
    ++seq;

    if (finished) {
      in_flight_of_process[plan.process] = kNoToken;
      completed[ev.token] = true;
      if (ev.hop != net.depth()) {
        result.error = "token " + std::to_string(plan.token) +
                       " reached a counter after " + std::to_string(ev.hop) +
                       " hops; network is not uniform";
        return result;
      }
      if (sink != nullptr) {
        TokenRecord rec;
        rec.token = plan.token;
        rec.process = plan.process;
        rec.source = plan.source;
        rec.sink = finished_sink;
        rec.value = finished_value;
        rec.t_in = plan.t_in();
        rec.t_out = plan.t_out();
        rec.first_seq = first_seq_of_process[plan.process];
        rec.last_seq = seq - 1;
        reorder->close(pos_of_process[plan.process], rec);
      }
    } else {
      if (ev.hop + 1 >= plan.times.size()) {
        result.error = "token " + std::to_string(plan.token) +
                       " still in flight after its last planned step; "
                       "network is not uniform";
        return result;
      }
      heap.push_back(
          {plan.times[ev.hop + 1], plan.rank, plan.token, ev.hop + 1});
      std::push_heap(heap.begin(), heap.end(), event_after);
    }
  }

  if (sink == nullptr) {
    result.trace.reserve(exec.plans.size());
    for (const TokenPlan& p : exec.plans) {
      if (completed[p.token]) result.trace.push_back(records[p.token]);
    }
  } else {
    reorder->flush();
  }
  return result;
}

FaultedSimResult simulate_faulted_wave_with(const TimedExecution& exec,
                                            const SimFaults& faults,
                                            SimArena& arena,
                                            TraceSink* sink) {
  FaultedSimResult result;
  result.error = validate(exec);
  if (!result.error.empty()) return result;

  const Network& net = *exec.net;
  const SimArena::WaveTables tables = arena.wave_tables(net);
  const CompiledNetwork& cnet = *tables.compiled;
  const std::uint32_t d = net.depth();
  if (!tables.plan->uniform() || tables.plan->depth() != d) {
    // The scalar interpreter is the spec, including its dynamic
    // non-uniformity errors: run it wholesale.
    return sink == nullptr ? simulate_faulted(exec, faults)
                           : simulate_faulted_stream(exec, faults, *sink);
  }

  for (const TokenPlan& p : exec.plans) {
    if (p.token == kNoToken) {
      result.error = "token id " + std::to_string(kNoToken) + " is reserved";
      return result;
    }
  }

  const auto doom = [&](TokenId t) -> std::uint32_t {
    return t < faults.lost_before_hop.size() ? faults.lost_before_hop[t]
                                             : kCompletes;
  };

  // The canonical event order, with the overlay folded into the runs:
  // never-issued tokens have none, a doomed token's steps stop at its
  // drop hop (the drop event is processed — it frees the process and the
  // reorder slot — but executes no transition and draws no seq). A run
  // that is not sorted is a step-order overlap, with the drop event
  // freeing the process exactly as in the scalar loop: fall back to the
  // scalar interpreter so the error text and any partial sink emission
  // match exactly.
  WaveOrder& canon = *tables.order;
  if (!canon.build(exec, faults.lost_before_hop)) {
    return sink == nullptr ? simulate_faulted(exec, faults)
                           : simulate_faulted_stream(exec, faults, *sink);
  }

  // Dynamic state, graph-walk flavor (reference semantics): explicit
  // round-robin positions — a stuck balancer freezes its position, which
  // the throughput-encoded representation cannot express — and next
  // counter values. Routing itself runs over the compiled tables, a
  // re-indexing of the graph walk.
  std::vector<PortIndex> balancer_pos(net.num_balancers(), 0);
  std::vector<Value> counter_next(net.fan_out());
  for (std::uint32_t j = 0; j < net.fan_out(); ++j) counter_next[j] = j;

  std::optional<IssueWindowBuffer> reorder;
  if (sink != nullptr) reorder.emplace(*sink, /*deferred=*/true);
  // Per-token state, indexed by plan. first_seq and the issue slot are
  // kept per token, not per process: inside one chunk a process's next
  // issue is processed (level 0) before its previous token's drop
  // (level >= 1).
  const std::size_t num_plans = exec.plans.size();
  std::vector<TokenRecord> records(sink == nullptr ? num_plans : 0);
  std::vector<std::uint64_t> first_seq_of_plan(sink == nullptr ? 0 : num_plans,
                                               0);
  std::vector<std::uint64_t> pos_of_plan(sink == nullptr ? 0 : num_plans, 0);
  std::vector<WireIndex> wire_of(num_plans, kInvalidWire);
  std::vector<bool> completed(num_plans, false);

  std::vector<std::uint32_t> bucket_start(d + 2, 0);
  std::vector<std::uint32_t> bucket_pos(d + 1, 0);
  std::vector<std::uint32_t> order;
  std::vector<std::uint64_t> seq_of;
  std::uint64_t seq = 0;

  while (canon.remaining() > 0) {
    const std::span<const WaveEvent> chunk = canon.next_chunk();
    const std::size_t n = chunk.size();

    // Canonical per-event seqs, assigned before bucketing: drop events
    // draw none, exactly like the scalar loop's skipped increment.
    seq_of.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      seq_of[i] = chunk[i].hop == doom(exec.plans[chunk[i].plan].token)
                      ? 0
                      : seq++;
    }

    // Stable counting sort of the chunk by hop (= level).
    std::fill(bucket_start.begin(), bucket_start.end(), 0u);
    for (std::size_t i = 0; i < n; ++i) ++bucket_start[chunk[i].hop + 1];
    for (std::uint32_t h = 0; h <= d; ++h) bucket_start[h + 1] += bucket_start[h];
    std::copy(bucket_start.begin(), bucket_start.end() - 1, bucket_pos.begin());
    order.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      order[bucket_pos[chunk[i].hop]++] = static_cast<std::uint32_t>(i);
    }

    for (std::uint32_t lvl = 0; lvl <= d; ++lvl) {
      for (std::uint32_t s = bucket_start[lvl]; s < bucket_start[lvl + 1]; ++s) {
        const std::uint32_t idx = order[s];
        const WaveEvent& e = chunk[idx];
        const std::uint32_t pi = e.plan;
        const TokenPlan& plan = exec.plans[pi];

        // The token vanishes here: no transition, no seq. (Emission
        // eligibility is reconciled at the chunk's deferred drain, so
        // within-chunk call order against other levels is immaterial.)
        if (e.hop == doom(plan.token)) {
          if (sink != nullptr) reorder->drop(pos_of_plan[pi]);
          continue;
        }

        if (lvl == 0) {
          wire_of[pi] = cnet.source_wire(plan.source);
          if (sink == nullptr) {
            records[pi].first_seq = seq_of[idx];
          } else {
            // Hop-0 events are visited in canonical order within the
            // chunk's level-0 slice, so opens arrive in first_seq order.
            first_seq_of_plan[pi] = seq_of[idx];
            pos_of_plan[pi] = reorder->open();
          }
        }

        const CompiledNetwork::Route& r = cnet.route(wire_of[pi]);
        if (lvl < d) {
          const PortIndex out = balancer_pos[r.node];
          if (!faults.stuck[r.node]) {
            balancer_pos[r.node] = static_cast<PortIndex>(
                (out + 1) % cnet.balancer_fan_out(r.node));
          }
          wire_of[pi] = cnet.out_wire_at(r.out_base + out);
        } else {
          const std::uint32_t counter = r.node;
          const Value v = counter_next[counter];
          counter_next[counter] += cnet.fan_out();
          completed[pi] = true;
          TokenRecord rec;
          rec.token = plan.token;
          rec.process = plan.process;
          rec.source = plan.source;
          rec.sink = counter;
          rec.value = v;
          rec.t_in = plan.t_in();
          rec.t_out = plan.t_out();
          rec.last_seq = seq_of[idx];
          if (sink == nullptr) {
            rec.first_seq = records[pi].first_seq;
            records[pi] = rec;
          } else {
            rec.first_seq = first_seq_of_plan[pi];
            reorder->close(pos_of_plan[pi], rec);
          }
        }
      }
    }
    if (sink != nullptr) reorder->drain();
  }

  if (sink == nullptr) {
    result.trace.reserve(num_plans);
    for (std::size_t i = 0; i < num_plans; ++i) {
      if (completed[i]) result.trace.push_back(records[i]);
    }
  } else {
    reorder->flush();
  }
  return result;
}

}  // namespace

FaultedSimResult simulate_faulted(const TimedExecution& exec,
                                  const SimFaults& faults) {
  return simulate_faulted_with(exec, faults, nullptr);
}

FaultedSimResult simulate_faulted_stream(const TimedExecution& exec,
                                         const SimFaults& faults,
                                         TraceSink& sink) {
  return simulate_faulted_with(exec, faults, &sink);
}

FaultedSimResult simulate_faulted_wave(const TimedExecution& exec,
                                       const SimFaults& faults,
                                       SimArena& arena) {
  return simulate_faulted_wave_with(exec, faults, arena, nullptr);
}

FaultedSimResult simulate_faulted_wave_stream(const TimedExecution& exec,
                                              const SimFaults& faults,
                                              SimArena& arena,
                                              TraceSink& sink) {
  return simulate_faulted_wave_with(exec, faults, arena, &sink);
}

}  // namespace cn::fault
