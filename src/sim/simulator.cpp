#include "sim/simulator.hpp"

#include <algorithm>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "core/wave.hpp"
#include "sim/wave_order.hpp"

namespace cn {

namespace {

template <class Overlay>
inline constexpr bool kFaulted = std::is_same_v<Overlay, SimFaults>;

struct Event {
  double time;
  double rank;
  TokenId token;
  std::uint32_t hop;  ///< Which layer crossing this is (0-based).

  bool operator>(const Event& o) const {
    if (time != o.time) return time > o.time;
    if (rank != o.rank) return rank > o.rank;
    return token > o.token;
  }
};

/// Min-heap comparator: std::push_heap/pop_heap build a max-heap with
/// respect to the comparator, so "greater" puts the earliest (time, rank,
/// token) event on top. The comparator is a total order over any set of
/// pending events (at most one event per token is pending), so the pop
/// sequence is unique regardless of heap internals.
constexpr auto event_after = [](const Event& a, const Event& b) { return a > b; };

/// Marks an empty per-process in-flight slot, so no plan may use it.
constexpr TokenId kNoToken = std::numeric_limits<TokenId>::max();

std::string reserved_id_error(const TimedExecution& exec) {
  for (const TokenPlan& p : exec.plans) {
    if (p.token == kNoToken) {
      return "token id " + std::to_string(kNoToken) + " is reserved";
    }
  }
  return {};
}

constexpr bool advances(const NoFaults&, NodeIndex) { return true; }
bool advances(const SimFaults& faults, NodeIndex b) { return !faults.stuck[b]; }

/// One balancer hop of a token on route `r`: the port it leaves by is
/// the balancer's round-robin position, which then advances unless the
/// overlay holds the balancer stuck.
template <class Overlay>
PortIndex take_port(const CompiledNetwork& net, CompiledState& state,
                    const CompiledNetwork::Route& r, const Overlay& overlay) {
  std::uint64_t& through = state.bal_through[r.node];
  const PortIndex port = net.port_of(r, through);
  if (advances(overlay, r.node)) ++through;
  return port;
}

/// One balancer wave: the core kernel, or, under faults, the same hops
/// through the overlay.
void step_level(const CompiledNetwork& net, CompiledState& state,
                std::span<TokenCursor> wave, const NoFaults&) {
  step_wave(net, state, wave);
}

void step_level(const CompiledNetwork& net, CompiledState& state,
                std::span<TokenCursor> wave, const SimFaults& faults) {
  for (TokenCursor& c : wave) {
    const CompiledNetwork::Route& r = net.route(c.wire);
    c.wire = net.out_wire_at(r.out_base + take_port(net, state, r, faults));
  }
}

std::span<const std::uint32_t> stops(const NoFaults&) { return {}; }
std::span<const std::uint32_t> stops(const SimFaults& faults) {
  return faults.lost_before_hop;
}

}  // namespace

/// Per-call buffers, kept allocated across calls. Per-token state is
/// indexed by plan.
struct SimArena::Scratch {
  // --- scalar mode --------------------------------------------------------
  std::vector<Event> heap;
  std::vector<std::uint32_t> plan_of;  ///< Plan index per token id.
  std::vector<TokenId> in_flight_of_process;
  // --- both modes ---------------------------------------------------------
  std::vector<WireIndex> wire_of;  ///< Current wire per token.
  std::vector<TokenRecord> records;  ///< Collect mode.
  std::vector<bool> completed;       ///< Collect mode under faults.
  /// Streaming mode: first_seq and issue slot per token, not per process:
  /// inside one wave chunk a process's next issue is processed (level 0)
  /// before its previous token's completion or drop (level >= 1).
  std::vector<std::uint64_t> first_seq_of_plan;
  std::vector<std::uint64_t> pos_of_plan;
  IssueWindowBuffer window;  ///< Ring reused across calls.
  // --- wave mode ----------------------------------------------------------
  WaveOrder canonical;                      ///< The canonical step order.
  std::vector<std::uint32_t> bucket_start;  ///< Per-level chunk offsets.
  std::vector<std::uint32_t> bucket_pos;    ///< Scatter cursor per level.
  std::vector<std::uint32_t> order;         ///< Chunk indices by level.
  std::vector<std::uint64_t> seq_of;        ///< Per chunk event, faults.
  std::vector<TokenCursor> cursors;         ///< One wave's gather buffer.
  std::vector<Value> values;                ///< Counter-wave results.

  /// Readies the token slots of a run over `num_plans` plans. Streaming
  /// runs emit records as tokens exit; only the collect path materializes
  /// the O(tokens) records array. Completions happen in seq order, but
  /// the sink contract is issue order, so they pass through a reorder
  /// window bounded by the open-token concurrency.
  void begin(std::size_t num_plans, TraceSink* sink, bool deferred,
             bool faulted) {
    if (sink == nullptr) {
      records.assign(num_plans, TokenRecord{});
      if (faulted) completed.assign(num_plans, false);
    } else {
      first_seq_of_plan.assign(num_plans, 0);
      pos_of_plan.assign(num_plans, 0);
      window.reset(*sink, deferred);
    }
  }

  /// Token `pi` takes its first step, number `seq`.
  void open(std::uint32_t pi, std::uint64_t seq, TraceSink* sink) {
    if (sink == nullptr) {
      records[pi].first_seq = seq;
    } else {
      first_seq_of_plan[pi] = seq;
      pos_of_plan[pi] = window.open();
    }
  }

  /// Token `pi` crossed its counter in step `last_seq`, counting `value`.
  void close(const TokenPlan& plan, std::uint32_t pi, Value value,
             std::uint32_t fan_out, std::uint64_t last_seq, TraceSink* sink,
             bool faulted) {
    TokenRecord rec;
    rec.token = plan.token;
    rec.process = plan.process;
    rec.source = plan.source;
    rec.sink = static_cast<std::uint32_t>(value % fan_out);
    rec.value = value;
    rec.t_in = plan.t_in();
    rec.t_out = plan.t_out();
    rec.last_seq = last_seq;
    if (sink == nullptr) {
      rec.first_seq = records[pi].first_seq;
      records[pi] = rec;
      if (faulted) completed[pi] = true;
    } else {
      rec.first_seq = first_seq_of_plan[pi];
      window.close(pos_of_plan[pi], rec);
    }
  }

  /// Token `pi` vanished: its issue slot must not hold back every
  /// later-issued completion until flush.
  void drop(std::uint32_t pi, TraceSink* sink) {
    if (sink != nullptr) window.drop(pos_of_plan[pi]);
  }

  /// Ends a run: the collected trace in plan order (completed tokens
  /// only), or the rest of the stream.
  void finish(SimulationResult& result, TraceSink* sink, bool faulted) {
    if (sink != nullptr) {
      window.flush();
    } else if (!faulted) {
      result.trace.assign(records.begin(), records.end());
    } else {
      result.trace.reserve(records.size());
      for (std::size_t i = 0; i < records.size(); ++i) {
        if (completed[i]) result.trace.push_back(records[i]);
      }
    }
  }
};

SimArena::SimArena() : scratch_(std::make_unique<Scratch>()) {}
SimArena::~SimArena() = default;
SimArena::SimArena(SimArena&&) noexcept = default;
SimArena& SimArena::operator=(SimArena&&) noexcept = default;

CompiledState& SimArena::acquire(const Network& net) {
  // Cached by address; the shape check catches the (unlikely) case of a
  // different Network later living at the same address. Identical name
  // and shape means an identical construction, hence identical tables.
  if (net_ == &net && compiled_ != nullptr &&
      compiled_->num_wires() == net.num_wires() &&
      compiled_->num_balancers() == net.num_balancers() &&
      compiled_->fan_in() == net.fan_in() &&
      compiled_->fan_out() == net.fan_out()) {
    state_->reset();
    return *state_;
  }
  compiled_ = std::make_unique<const CompiledNetwork>(net);
  state_ = std::make_unique<CompiledState>(*compiled_);
  wave_plan_.reset();
  net_ = &net;
  return *state_;
}

SimArena::WaveTables SimArena::wave_tables(const Network& net) {
  acquire(net);
  if (wave_plan_ == nullptr) wave_plan_ = std::make_unique<WavePlan>(*compiled_);
  return {compiled_.get(), wave_plan_.get(), &scratch_->canonical};
}

template <class Overlay>
SimulationResult simulate_with(const TimedExecution& exec, SimArena& arena,
                               const Overlay& overlay, TraceSink* sink,
                               bool record_steps) {
  constexpr bool faulted = kFaulted<Overlay>;
  SimulationResult result;
  result.error = validate(exec);
  if (result.error.empty()) result.error = reserved_id_error(exec);
  if (!result.error.empty()) return result;

  const Network& net = *exec.net;
  CompiledState& state = arena.acquire(net);
  const CompiledNetwork& cnet = *arena.compiled_;
  SimArena::Scratch& scr = *arena.scratch_;

  TokenId max_token = 0;
  ProcessId max_process = 0;
  for (const TokenPlan& p : exec.plans) {
    max_token = std::max(max_token, p.token);
    max_process = std::max(max_process, p.process);
  }
  const std::size_t num_plans = exec.plans.size();
  scr.begin(num_plans, sink, /*deferred=*/false, faulted);
  scr.plan_of.resize(max_token + 1);
  scr.wire_of.resize(num_plans);
  // Paper Section 2.2, rule 3: all steps of a process's token must
  // precede all steps of its next token IN THE STEP SEQUENCE. Equal times
  // with adverse ranks could interleave them, so track in-flight tokens
  // per process and reject such schedules.
  scr.in_flight_of_process.assign(max_process + 1, kNoToken);
  scr.heap.clear();
  scr.heap.reserve(num_plans);
  for (std::uint32_t i = 0; i < num_plans; ++i) {
    const TokenPlan& p = exec.plans[i];
    scr.plan_of[p.token] = i;
    if constexpr (faulted) {
      if (overlay.lost_hop(p.token) == 0) continue;  // never issued
    }
    scr.heap.push_back({p.times[0], p.rank, p.token, 0});
  }
  std::make_heap(scr.heap.begin(), scr.heap.end(), event_after);

  std::vector<Step> steps;
  std::uint64_t seq = 0;
  while (!scr.heap.empty()) {
    std::pop_heap(scr.heap.begin(), scr.heap.end(), event_after);
    const Event ev = scr.heap.back();
    scr.heap.pop_back();
    const std::uint32_t pi = scr.plan_of[ev.token];
    const TokenPlan& plan = exec.plans[pi];
    if constexpr (faulted) {
      // The token vanishes at the planned time of its first unexecuted
      // hop; its process becomes free to issue again from that point.
      // (hop > 0 always: never-issued tokens were never pushed on the
      // heap, so a vanishing token has an open issue slot to drop.)
      if (ev.hop == overlay.lost_hop(ev.token)) {
        scr.in_flight_of_process[plan.process] = kNoToken;
        scr.drop(pi, sink);
        continue;
      }
    }
    if (ev.hop == 0) {
      TokenId& slot = scr.in_flight_of_process[plan.process];
      if (slot != kNoToken) {
        result.error = "process " + std::to_string(plan.process) +
                       " issued token " + std::to_string(plan.token) +
                       " while token " + std::to_string(slot) +
                       " was still in flight (step-order overlap)";
        return result;
      }
      slot = plan.token;
      scr.wire_of[pi] = cnet.source_wire(plan.source);
      ++state.source_count[plan.source];
      scr.open(pi, seq, sink);
    }
    const CompiledNetwork::Route& r = cnet.route(scr.wire_of[pi]);
    if (!r.is_sink) {
      const PortIndex port = take_port(cnet, state, r, overlay);
      scr.wire_of[pi] = cnet.out_wire_at(r.out_base + port);
      if (record_steps) {
        steps.push_back({Step::Kind::kBalancer, plan.process, plan.token,
                         r.node,
                         static_cast<PortIndex>(r.in_slot -
                                                cnet.in_offset(r.node)),
                         port, 0});
      }
      ++seq;
      if (ev.hop + 1 >= plan.times.size()) {
        result.error = "token " + std::to_string(plan.token) +
                       " still in flight after its last planned step; "
                       "network is not uniform";
        return result;
      }
      scr.heap.push_back({plan.times[ev.hop + 1], plan.rank, plan.token,
                          ev.hop + 1});
      std::push_heap(scr.heap.begin(), scr.heap.end(), event_after);
      continue;
    }
    const Value v = state.counter_next[r.node];
    state.counter_next[r.node] += cnet.fan_out();
    if (record_steps) {
      steps.push_back({Step::Kind::kCounter, plan.process, plan.token, r.node,
                       0, 0, v});
    }
    ++seq;
    scr.in_flight_of_process[plan.process] = kNoToken;
    if (ev.hop != net.depth()) {
      result.error = "token " + std::to_string(plan.token) +
                     " reached a counter after " + std::to_string(ev.hop) +
                     " hops; network is not uniform";
      return result;
    }
    scr.close(plan, pi, v, cnet.fan_out(), seq - 1, sink, faulted);
  }

  scr.finish(result, sink, faulted);
  result.steps = std::move(steps);
  return result;
}

template <class Overlay>
SimulationResult simulate_wave_with(const TimedExecution& exec,
                                    SimArena& arena, const Overlay& overlay,
                                    TraceSink* sink) {
  constexpr bool faulted = kFaulted<Overlay>;
  SimulationResult result;
  result.error = validate(exec);
  if (result.error.empty()) result.error = reserved_id_error(exec);
  if (!result.error.empty()) return result;

  const Network& net = *exec.net;
  const SimArena::WaveTables tables = arena.wave_tables(net);
  const std::uint32_t d = net.depth();
  // The canonical event order, drawn from the per-process runs with the
  // overlay folded in. The scalar pop order is exactly this order — at
  // every pop the heap holds each unfinished token's earliest
  // unprocessed event, and a successor event never sorts before its
  // predecessor (times are non-decreasing per plan; `hop` breaks the
  // equal-time case), so the minimum over pending events is the minimum
  // over all unprocessed events. The scalar interpreter is the
  // executable spec for what the wave path cannot take: structurally
  // non-uniform networks (its dynamic non-uniformity errors) and
  // processes whose run is not sorted (a step-order overlap, paper
  // Section 2.2, rule 3, with a drop event freeing the process exactly
  // as in the scalar loop). It reproduces the error text and any partial
  // sink emission exactly.
  if (!tables.plan->uniform() || tables.plan->depth() != d ||
      !tables.order->build(exec, stops(overlay))) {
    return simulate_with(exec, arena, overlay, sink);
  }
  WaveOrder& canon = *tables.order;

  SimArena::Scratch& scr = *arena.scratch_;
  scr.begin(exec.plans.size(), sink, /*deferred=*/true, faulted);
  scr.wire_of.resize(exec.plans.size());

  const CompiledNetwork& cnet = *tables.compiled;
  CompiledState& cstate = *arena.state_;
  const std::uint32_t fan_out = cnet.fan_out();
  scr.bucket_start.assign(d + 2, 0);
  scr.bucket_pos.assign(d + 1, 0);

  std::uint64_t seq = 0;  // Under faults: the next seq to draw.
  for (std::uint64_t base = 0; canon.remaining() > 0;) {
    const std::span<const WaveEvent> chunk = canon.next_chunk();
    const std::size_t n = chunk.size();

    // The seq of an event is its canonical index. Under faults drop
    // events draw none, exactly like the scalar loop's skipped
    // increment, so the seqs are assigned before bucketing.
    if constexpr (faulted) {
      scr.seq_of.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        const TokenId token = exec.plans[chunk[i].plan].token;
        scr.seq_of[i] =
            chunk[i].hop == overlay.lost_hop(token) ? 0 : seq++;
      }
    }
    const auto seq_at = [&](std::uint32_t idx) -> std::uint64_t {
      if constexpr (faulted) return scr.seq_of[idx];
      return base + idx;
    };

    // Stable counting sort of the chunk by hop. A balancer lives at
    // exactly one level, so grouping by level keeps each balancer's
    // arrival order; hop h sorts before hop h+1, so a token's own steps
    // stay ordered within the chunk.
    std::fill(scr.bucket_start.begin(), scr.bucket_start.end(), 0u);
    for (const WaveEvent& e : chunk) ++scr.bucket_start[e.hop + 1];
    for (std::uint32_t h = 0; h <= d; ++h) {
      scr.bucket_start[h + 1] += scr.bucket_start[h];
    }
    std::copy(scr.bucket_start.begin(), scr.bucket_start.end() - 1,
              scr.bucket_pos.begin());
    scr.order.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      scr.order[scr.bucket_pos[chunk[i].hop]++] =
          static_cast<std::uint32_t>(i);
    }

    for (std::uint32_t lvl = 0; lvl <= d; ++lvl) {
      const std::span<const std::uint32_t> slice(
          scr.order.data() + scr.bucket_start[lvl],
          scr.bucket_start[lvl + 1] - scr.bucket_start[lvl]);
      if (slice.empty()) continue;

      if (lvl == 0) {
        // Entry bookkeeping. Hop-0 events are visited in canonical order
        // within each chunk's level-0 slice, so opens arrive in first_seq
        // order. (No token is dropped at hop 0: a never-issued one has
        // no steps.)
        for (const std::uint32_t idx : slice) {
          const std::uint32_t pi = chunk[idx].plan;
          const TokenPlan& plan = exec.plans[pi];
          scr.wire_of[pi] = cnet.source_wire(plan.source);
          ++cstate.source_count[plan.source];
          scr.open(pi, seq_at(idx), sink);
        }
      }

      scr.cursors.clear();
      for (const std::uint32_t idx : slice) {
        const std::uint32_t pi = chunk[idx].plan;
        if constexpr (faulted) {
          // The token vanishes here: no transition, no seq. (Emission
          // eligibility is reconciled at the chunk's deferred drain, so
          // within-chunk call order against other levels is immaterial.)
          if (lvl == overlay.lost_hop(exec.plans[pi].token)) {
            scr.drop(pi, sink);
            continue;
          }
        }
        scr.cursors.push_back({scr.wire_of[pi], idx});
      }
      if (lvl < d) {
        step_level(cnet, cstate, scr.cursors, overlay);
        for (const TokenCursor& c : scr.cursors) {
          scr.wire_of[chunk[c.tag].plan] = c.wire;
        }
      } else {
        scr.values.resize(scr.cursors.size());
        step_wave_counters(cnet, cstate, scr.cursors, scr.values);
        for (std::size_t k = 0; k < scr.cursors.size(); ++k) {
          const std::uint32_t pi = chunk[scr.cursors[k].tag].plan;
          scr.close(exec.plans[pi], pi, scr.values[k], fan_out,
                    seq_at(scr.cursors[k].tag), sink, faulted);
        }
      }
    }
    if (sink != nullptr) scr.window.drain();
    base += n;
  }

  scr.finish(result, sink, faulted);
  return result;
}

template SimulationResult simulate_with(const TimedExecution&, SimArena&,
                                        const NoFaults&, TraceSink*, bool);
template SimulationResult simulate_with(const TimedExecution&, SimArena&,
                                        const SimFaults&, TraceSink*, bool);
template SimulationResult simulate_wave_with(const TimedExecution&, SimArena&,
                                             const NoFaults&, TraceSink*);
template SimulationResult simulate_wave_with(const TimedExecution&, SimArena&,
                                             const SimFaults&, TraceSink*);

SimulationResult simulate(const TimedExecution& exec) {
  SimArena arena;
  return simulate_with(exec, arena, NoFaults{}, nullptr);
}

SimulationResult simulate(const TimedExecution& exec, SimArena& arena) {
  return simulate_with(exec, arena, NoFaults{}, nullptr);
}

SimulationResult simulate_recorded(const TimedExecution& exec) {
  SimArena arena;
  return simulate_with(exec, arena, NoFaults{}, nullptr,
                       /*record_steps=*/true);
}

SimulationResult simulate_stream(const TimedExecution& exec, SimArena& arena,
                                 TraceSink& sink) {
  return simulate_with(exec, arena, NoFaults{}, &sink);
}

SimulationResult simulate_wave(const TimedExecution& exec, SimArena& arena) {
  return simulate_wave_with(exec, arena, NoFaults{}, nullptr);
}

SimulationResult simulate_wave_stream(const TimedExecution& exec,
                                      SimArena& arena, TraceSink& sink) {
  return simulate_wave_with(exec, arena, NoFaults{}, &sink);
}

}  // namespace cn
