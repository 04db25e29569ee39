#include "sim/simulator.hpp"

#include <algorithm>
#include <limits>
#include <span>
#include <vector>

#include "core/wave.hpp"
#include "sim/wave_order.hpp"

namespace cn {

namespace {

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

constexpr TokenId kNoToken = std::numeric_limits<TokenId>::max();

}  // namespace

/// Per-call buffers, kept allocated across calls.
struct SimArena::Scratch {
  std::vector<Event> heap;
  std::vector<const TokenPlan*> plan_of;
  std::vector<TokenRecord> records;
  std::vector<TokenId> in_flight_of_process;
  /// Streaming mode: first_seq and issue slot of each process's
  /// in-flight token — the only per-token state that must survive from
  /// entry to exit.
  std::vector<std::uint64_t> first_seq_of_process;
  std::vector<std::uint64_t> pos_of_process;
  IssueWindowBuffer window;  ///< Ring reused across calls.
  // --- wave mode (per-token state is indexed by plan) -------------------
  WaveOrder canonical;                      ///< The canonical step order.
  std::vector<std::uint32_t> bucket_start;  ///< Per-level chunk offsets.
  std::vector<std::uint32_t> bucket_pos;    ///< Scatter cursor per level.
  std::vector<std::uint32_t> order;         ///< Chunk indices by level.
  std::vector<WireIndex> wire_of;           ///< Current wire per token.
  /// Wave streaming keeps first_seq and issue slot per token, not per
  /// process: inside one chunk a process's next issue is processed
  /// (level 0) before its previous token's completion (level d), so a
  /// per-process slot would be overwritten too early.
  std::vector<std::uint64_t> first_seq_of_plan;
  std::vector<std::uint64_t> pos_of_plan;
  std::vector<TokenCursor> cursors;         ///< One wave's gather buffer.
  std::vector<Value> values;                ///< Counter-wave results.
};

SimArena::SimArena() : scratch_(std::make_unique<Scratch>()) {}
SimArena::~SimArena() = default;
SimArena::SimArena(SimArena&&) noexcept = default;
SimArena& SimArena::operator=(SimArena&&) noexcept = default;

SimArena::WaveTables SimArena::wave_tables(const Network& net) {
  acquire(net);
  if (wave_plan_ == nullptr || &wave_plan_->compiled() != compiled_.get()) {
    wave_plan_ = std::make_unique<WavePlan>(*compiled_);
    wave_state_ = std::make_unique<CompiledState>(*compiled_);
  } else {
    wave_state_->reset();
  }
  return {compiled_.get(), wave_plan_.get(), &scratch_->canonical};
}

NetworkState& SimArena::acquire(const Network& net) {
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
  compiled_ = std::make_shared<const CompiledNetwork>(net);
  state_ = std::make_unique<NetworkState>(compiled_);
  net_ = &net;
  return *state_;
}

SimulationResult simulate_with(const TimedExecution& exec, SimArena& arena,
                               bool record_steps, TraceSink* sink) {
  SimulationResult result;
  result.error = validate(exec);
  if (!result.error.empty()) return result;

  const Network& net = *exec.net;
  NetworkState& state = arena.acquire(net);
  state.set_recording(record_steps);
  SimArena::Scratch& scr = *arena.scratch_;

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

  scr.plan_of.assign(max_token + 1, nullptr);
  // Streaming runs emit records as tokens exit; only the collect path
  // materializes the O(tokens) records array. Completions happen in seq
  // order, but the sink contract is issue order, so they pass through a
  // reorder window bounded by the open-token concurrency (first_seqs
  // come from the incrementing `seq`, so the monotone-producer
  // contract of IssueWindowBuffer holds).
  if (sink == nullptr) {
    scr.records.assign(max_token + 1, TokenRecord{});
  } else {
    scr.first_seq_of_process.assign(max_process + 1, 0);
    scr.pos_of_process.assign(max_process + 1, 0);
    scr.window.reset(*sink, /*deferred=*/false);
  }
  // Paper Section 2.2, rule 3: all steps of a process's token must
  // precede all steps of its next token IN THE STEP SEQUENCE. Equal times
  // with adverse ranks could interleave them, so track in-flight tokens
  // per process and reject such schedules.
  scr.in_flight_of_process.assign(max_process + 1, kNoToken);
  scr.heap.clear();
  scr.heap.reserve(exec.plans.size());
  for (const TokenPlan& p : exec.plans) {
    scr.plan_of[p.token] = &p;
    scr.heap.push_back({p.times[0], p.rank, p.token, 0});
  }
  std::make_heap(scr.heap.begin(), scr.heap.end(), event_after);

  std::uint64_t seq = 0;
  while (!scr.heap.empty()) {
    std::pop_heap(scr.heap.begin(), scr.heap.end(), event_after);
    const Event ev = scr.heap.back();
    scr.heap.pop_back();
    const TokenPlan& plan = *scr.plan_of[ev.token];
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
      state.enter(plan.token, plan.process, plan.source);
      if (sink == nullptr) {
        scr.records[ev.token].first_seq = seq;
      } else {
        scr.first_seq_of_process[plan.process] = seq;
        scr.pos_of_process[plan.process] = scr.window.open();
      }
    }
    const bool finished = state.step_fast(plan.token);
    ++seq;
    if (finished) {
      scr.in_flight_of_process[plan.process] = kNoToken;
      const Value v = state.value(plan.token);
      if (ev.hop != net.depth()) {
        result.error = "token " + std::to_string(plan.token) +
                       " reached a counter after " + std::to_string(ev.hop) +
                       " hops; network is not uniform";
        return result;
      }
      if (sink == nullptr) {
        TokenRecord& rec = scr.records[ev.token];
        rec.token = plan.token;
        rec.process = plan.process;
        rec.source = plan.source;
        rec.sink = static_cast<std::uint32_t>(v % net.fan_out());
        rec.value = v;
        rec.t_in = plan.t_in();
        rec.t_out = plan.t_out();
        rec.last_seq = seq - 1;
      } else {
        TokenRecord rec;
        rec.token = plan.token;
        rec.process = plan.process;
        rec.source = plan.source;
        rec.sink = static_cast<std::uint32_t>(v % net.fan_out());
        rec.value = v;
        rec.t_in = plan.t_in();
        rec.t_out = plan.t_out();
        rec.first_seq = scr.first_seq_of_process[plan.process];
        rec.last_seq = seq - 1;
        scr.window.close(scr.pos_of_process[plan.process], rec);
      }
    } else {
      if (ev.hop + 1 >= plan.times.size()) {
        result.error = "token " + std::to_string(plan.token) +
                       " still in flight after its last planned step; "
                       "network is not uniform";
        return result;
      }
      scr.heap.push_back({plan.times[ev.hop + 1], plan.rank, plan.token,
                          ev.hop + 1});
      std::push_heap(scr.heap.begin(), scr.heap.end(), event_after);
    }
  }

  if (sink == nullptr) {
    result.trace.reserve(exec.plans.size());
    for (const TokenPlan& p : exec.plans) {
      result.trace.push_back(scr.records[p.token]);
    }
  } else {
    scr.window.flush();
  }
  if (record_steps) result.steps = state.log();
  return result;
}

SimulationResult simulate_wave_with(const TimedExecution& exec,
                                    SimArena& arena, TraceSink* sink) {
  SimulationResult result;
  result.error = validate(exec);
  if (!result.error.empty()) return result;

  const Network& net = *exec.net;
  const SimArena::WaveTables tables = arena.wave_tables(net);
  const std::uint32_t d = net.depth();
  if (!tables.plan->uniform() || tables.plan->depth() != d) {
    // The scalar interpreter is the executable spec, including its
    // dynamic non-uniformity errors (and any sink prefix emitted before
    // the error): run it wholesale.
    return simulate_with(exec, arena, /*record_steps=*/false, sink);
  }
  for (const TokenPlan& p : exec.plans) {
    if (p.token == kNoToken) {
      result.error = "token id " + std::to_string(kNoToken) + " is reserved";
      return result;
    }
  }

  // The canonical event order, drawn from the per-process runs. The
  // scalar pop order is exactly this order — at every pop the heap holds
  // each unfinished token's earliest unprocessed event, and a successor
  // event never sorts before its predecessor (times are non-decreasing
  // per plan; `hop` breaks the equal-time case), so the minimum over
  // pending events is the minimum over all unprocessed events. A
  // process whose run is not sorted has a step-order overlap (paper
  // Section 2.2, rule 3): the scalar interpreter then reproduces the
  // error text and any partial sink emission exactly.
  WaveOrder& canon = *tables.order;
  if (!canon.build(exec)) {
    return simulate_with(exec, arena, /*record_steps=*/false, sink);
  }

  SimArena::Scratch& scr = *arena.scratch_;
  const std::size_t num_plans = exec.plans.size();
  if (sink == nullptr) {
    scr.records.assign(num_plans, TokenRecord{});
  } else {
    scr.first_seq_of_plan.assign(num_plans, 0);
    scr.pos_of_plan.assign(num_plans, 0);
    scr.window.reset(*sink, /*deferred=*/true);
  }
  scr.wire_of.assign(num_plans, kInvalidWire);

  const CompiledNetwork& cnet = *tables.compiled;
  CompiledState& cstate = *arena.wave_state_;
  const std::uint32_t fan_out = cnet.fan_out();
  scr.bucket_start.assign(d + 2, 0);
  scr.bucket_pos.assign(d + 1, 0);

  for (std::uint64_t base = 0; canon.remaining() > 0;) {
    const std::span<const WaveEvent> chunk = canon.next_chunk();
    const std::size_t n = chunk.size();

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
        // Entry bookkeeping; seq of an event is its canonical index.
        for (const std::uint32_t idx : slice) {
          const std::uint32_t pi = chunk[idx].plan;
          const TokenPlan& plan = exec.plans[pi];
          scr.wire_of[pi] = cnet.source_wire(plan.source);
          ++cstate.source_count[plan.source];
          const std::uint64_t seq = base + idx;
          if (sink == nullptr) {
            scr.records[pi].first_seq = seq;
          } else {
            // Hop-0 events are visited in canonical order within each
            // chunk's level-0 slice, so opens arrive in first_seq order.
            scr.first_seq_of_plan[pi] = seq;
            scr.pos_of_plan[pi] = scr.window.open();
          }
        }
      }

      scr.cursors.clear();
      for (const std::uint32_t idx : slice) {
        scr.cursors.push_back({scr.wire_of[chunk[idx].plan], idx});
      }
      if (lvl < d) {
        step_wave(cnet, cstate, scr.cursors);
        for (const TokenCursor& c : scr.cursors) {
          scr.wire_of[chunk[c.tag].plan] = c.wire;
        }
      } else {
        scr.values.resize(scr.cursors.size());
        step_wave_counters(cnet, cstate, scr.cursors, scr.values);
        for (std::size_t k = 0; k < scr.cursors.size(); ++k) {
          const std::uint32_t pi = chunk[scr.cursors[k].tag].plan;
          const TokenPlan& plan = exec.plans[pi];
          const Value v = scr.values[k];
          TokenRecord rec;
          rec.token = plan.token;
          rec.process = plan.process;
          rec.source = plan.source;
          rec.sink = static_cast<std::uint32_t>(v % fan_out);
          rec.value = v;
          rec.t_in = plan.t_in();
          rec.t_out = plan.t_out();
          rec.last_seq = base + scr.cursors[k].tag;
          if (sink == nullptr) {
            rec.first_seq = scr.records[pi].first_seq;
            scr.records[pi] = rec;
          } else {
            rec.first_seq = scr.first_seq_of_plan[pi];
            scr.window.close(scr.pos_of_plan[pi], rec);
          }
        }
      }
    }
    if (sink != nullptr) scr.window.drain();
    base += n;
  }

  if (sink == nullptr) {
    result.trace.assign(scr.records.begin(), scr.records.end());
  } else {
    scr.window.flush();
  }
  return result;
}

SimulationResult simulate(const TimedExecution& exec) {
  SimArena arena;
  return simulate_with(exec, arena, /*record_steps=*/false, nullptr);
}

SimulationResult simulate(const TimedExecution& exec, SimArena& arena) {
  return simulate_with(exec, arena, /*record_steps=*/false, nullptr);
}

SimulationResult simulate_recorded(const TimedExecution& exec) {
  SimArena arena;
  return simulate_with(exec, arena, /*record_steps=*/true, nullptr);
}

SimulationResult simulate_stream(const TimedExecution& exec, SimArena& arena,
                                 TraceSink& sink) {
  return simulate_with(exec, arena, /*record_steps=*/false, &sink);
}

SimulationResult simulate_wave(const TimedExecution& exec, SimArena& arena) {
  return simulate_wave_with(exec, arena, nullptr);
}

SimulationResult simulate_wave_stream(const TimedExecution& exec,
                                      SimArena& arena, TraceSink& sink) {
  return simulate_wave_with(exec, arena, &sink);
}

}  // namespace cn
