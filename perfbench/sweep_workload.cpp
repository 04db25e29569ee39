// sweep_stream: engine::sweep over the simulator backend with the wave
// interpreter and streaming analysis, on B(8) with 16 processes x 64
// ops and c_max/c_min = 4 (above Prop 5.2's (lg w + 3)/2 = 3, so some
// trials are not linearizable and a few not sequentially consistent).
// No service code runs; interpreter event ordering, workload generation
// and the streaming analyzer do the work.
#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>

#include "bench.hpp"
#include "core/constructions.hpp"
#include "engine/engine.hpp"
#include "sim/simulator.hpp"
#include "sim/workload.hpp"
#include "trace/sink.hpp"
#include "trace/streaming.hpp"

namespace pb {
namespace {

constexpr std::uint32_t kWidth = 8;
constexpr std::uint32_t kProcesses = 16;
constexpr std::uint32_t kOps = 64;
constexpr std::uint64_t kTokensPerTrial = std::uint64_t{kProcesses} * kOps;
/// Trials per engine::sweep call: the unit a sweep user waits for, and
/// one sample of the latency, the rate and tear-down. A call takes
/// about 75 ms on 2 threads. A host that steals CPU time stalls a vCPU
/// for milliseconds at a time, and a call waits for whichever thread it
/// stalled: with 32-trial calls the p99 rose by a third (p50 by an
/// eighth) in runs with 5% or more stolen, and with single trials as
/// samples it doubled. Larger calls average the stalls out.
constexpr std::uint64_t kTrialsPerCall = 128;
/// Calls per p99 window (see LatencyStats).
constexpr std::size_t kWindow = 20;
/// Trials of the traced run's phase-by-phase decomposition.
constexpr std::uint32_t kDecomposedTrials = 64;
/// Set-up cycles (network construction + the first arena compile, a
/// few microseconds) timed after every sweep call. Spread over the
/// whole run, their lower decile finds the host's quiet stretches; 2048
/// cycles timed back to back after the calls spread 0.3 of their median
/// between runs, as the host's load in those few milliseconds decided.
constexpr int kSetupCyclesPerCall = 8;

/// Registry key of StampedSimulator (below): the simulator backend with
/// trial time stamps.
constexpr const char* kStampedBackend = "perfbench_stamped_simulator";

/// Fixed sweeper thread count, capped by the host.
std::uint32_t sweep_threads() {
  return std::max(1u, std::min(2u, std::thread::hardware_concurrency()));
}

/// Forwards every trial to the "simulator" backend and stamps when the
/// call's first trial started and its last trial ended. That splits an
/// engine::sweep call into its set-up (thread spawn, per-worker
/// context), its trials, and its tear-down (join, reduction, context
/// release) from outside the engine: a stamp costs two clock reads per
/// trial of about a millisecond.
class StampedSimulator final : public cn::engine::TraceSource {
 public:
  std::string name() const override { return kStampedBackend; }

  cn::engine::RunResult run(const cn::engine::RunSpec& spec) const override {
    const std::uint64_t t0 = now_ns();
    cn::engine::RunResult r = inner().run(spec);
    stamp(t0, now_ns());
    return r;
  }
  cn::engine::RunResult run(const cn::engine::RunSpec& spec,
                            cn::engine::RunContext& ctx) const override {
    const std::uint64_t t0 = now_ns();
    cn::engine::RunResult r = inner().run(spec, ctx);
    stamp(t0, now_ns());
    return r;
  }
  cn::engine::RunResult run(const cn::engine::RunSpec& spec,
                            cn::engine::RunContext& ctx,
                            cn::TraceSink& sink) const override {
    const std::uint64_t t0 = now_ns();
    cn::engine::RunResult r = inner().run(spec, ctx, sink);
    stamp(t0, now_ns());
    return r;
  }

  /// Clears the stamps before a sweep call.
  static void reset() {
    first_start_.store(~std::uint64_t{0}, std::memory_order_relaxed);
    last_end_.store(0, std::memory_order_relaxed);
  }
  static std::uint64_t first_start() {
    return first_start_.load(std::memory_order_relaxed);
  }
  static std::uint64_t last_end() {
    return last_end_.load(std::memory_order_relaxed);
  }

 private:
  static const cn::engine::TraceSource& inner() {
    static const cn::engine::TraceSource* const simulator =
        cn::engine::find_backend("simulator");
    return *simulator;
  }
  static void stamp(std::uint64_t start, std::uint64_t end) {
    std::uint64_t v = first_start_.load(std::memory_order_relaxed);
    while (start < v && !first_start_.compare_exchange_weak(
                            v, start, std::memory_order_relaxed)) {
    }
    v = last_end_.load(std::memory_order_relaxed);
    while (end > v &&
           !last_end_.compare_exchange_weak(v, end, std::memory_order_relaxed)) {
    }
  }

  static inline std::atomic<std::uint64_t> first_start_{0};
  static inline std::atomic<std::uint64_t> last_end_{0};
};

void register_stamped_backend() {
  static const bool registered = cn::engine::register_backend(
      kStampedBackend, [] { return std::make_unique<StampedSimulator>(); });
  (void)registered;
}

cn::engine::RunSpec trial_spec(const cn::Network& net, std::uint64_t seed) {
  register_stamped_backend();
  cn::engine::RunSpec s;
  s.backend = kStampedBackend;
  s.net = &net;
  s.processes = kProcesses;
  s.ops_per_process = kOps;
  s.c_min = 1.0;
  s.c_max = 4.0;
  s.wave_exec = true;
  s.keep_trace = false;
  s.seed = seed;
  return s;
}

/// The simulator backend's workload for `spec` (the same fields, and
/// the same local-delay default, as the backend's own generator call).
cn::WorkloadSpec workload_of(const cn::engine::RunSpec& spec) {
  cn::WorkloadSpec wl;
  wl.processes = spec.processes;
  wl.tokens_per_process = spec.ops_per_process;
  wl.c_min = spec.c_min;
  wl.c_max = spec.c_max;
  wl.local_delay_min = spec.local_delay_min;
  wl.local_delay_max = spec.local_delay_max >= 0.0 ? spec.local_delay_max
                                                   : spec.local_delay_min + 2.0;
  wl.extreme_delays = spec.extreme_delays;
  return wl;
}

bool same_report(const cn::ConsistencyReport& a,
                 const cn::ConsistencyReport& b) {
  return a.total == b.total && a.non_linearizable == b.non_linearizable &&
         a.non_sequentially_consistent == b.non_sequentially_consistent;
}

double rate(std::uint64_t n, std::uint64_t ns) {
  return ns == 0 ? 0.0 : static_cast<double>(n) * 1e9 / static_cast<double>(ns);
}

/// A leg of back-to-back sweep calls lasting about `seconds` (at least
/// one call).
struct SweepLeg {
  std::uint64_t calls = 0;
  std::uint64_t tokens = 0;
  std::uint64_t lin_trials = 0;  ///< Trials with a non-linearizable token.
  std::uint64_t sc_trials = 0;   ///< Trials with a non-SC token.
  std::uint64_t wall_ns = 0;     ///< Sum of call durations.
  std::vector<double> call_rate;  ///< Tokens per second of each call.
  std::uint64_t cpu_ns = 0;      ///< Process CPU over the calls.
  LatencyStats latency{kWindow};
  /// Per call: from the last trial's end until sweep() returned.
  std::vector<double> teardown_s;
  std::vector<double> setup_s;  ///< Set-up cycles, between the calls.
};

/// Network construction and the first arena compile, in seconds.
double setup_cycle() {
  const std::uint64_t t0 = now_ns();
  const cn::Network net = cn::make_bitonic(kWidth);
  cn::SimArena arena;
  arena.acquire(net);
  arena.wave_tables(net);
  return static_cast<double>(now_ns() - t0) / 1e9;
}

SweepLeg run_leg(const cn::Network& net, std::uint64_t seed, double seconds,
                 std::uint64_t first_call, SpanRecorder* spans,
                 RunOutcome& out) {
  SweepLeg leg;
  cn::engine::SweepSpec sp;
  sp.trials = kTrialsPerCall;
  sp.threads = sweep_threads();
  const std::uint64_t budget = static_cast<std::uint64_t>(seconds * 1e9);
  const std::uint64_t begin = now_ns();
  for (std::uint64_t k = first_call;
       k == first_call || now_ns() - begin < budget; ++k) {
    sp.base = trial_spec(net, derive_seed(seed, k));
    StampedSimulator::reset();
    const std::uint64_t cpu0 = process_cpu_ns();
    const std::uint64_t t0 = now_ns();
    const cn::engine::SweepOutcome o = cn::engine::sweep(sp);
    const std::uint64_t t1 = now_ns();
    const std::uint64_t last_end = StampedSimulator::last_end();
    if (last_end > t0 && last_end <= t1) {
      leg.teardown_s.push_back(static_cast<double>(t1 - last_end) / 1e9);
    }
    leg.cpu_ns += process_cpu_ns() - cpu0;
    if (spans != nullptr) spans->add("engine.sweep", kNoSpan, k, t0, t1);
    const cn::engine::SweepStats& st = o.stats;
    out.attempted += kTrialsPerCall;
    out.failed += st.errors;
    out.check(st.errors == 0, "sweep call " + std::to_string(k) +
                                  " had errored trials: " + st.first_error);
    out.check(st.total_tokens == kTrialsPerCall * kTokensPerTrial,
              "sweep call " + std::to_string(k) + " counted " +
                  std::to_string(st.total_tokens) + " tokens");
    ++leg.calls;
    leg.tokens += st.total_tokens;
    leg.lin_trials += st.lin_violations;
    leg.sc_trials += st.sc_violations;
    leg.wall_ns += t1 - t0;
    leg.call_rate.push_back(rate(st.total_tokens, t1 - t0));
    leg.latency.add(t1 - t0);
    for (int c = 0; c < kSetupCyclesPerCall; ++c) {
      leg.setup_s.push_back(setup_cycle());
    }
  }
  return leg;
}

}  // namespace

TrialLedger decompose_trials(std::uint64_t seed, std::uint32_t trials,
                             SpanRecorder& spans, RunOutcome& out) {
  const cn::Network net = cn::make_bitonic(kWidth);
  cn::engine::RunSpec spec = trial_spec(net, seed);
  const cn::WorkloadSpec wl = workload_of(spec);
  cn::engine::RunContext ctx;
  cn::SimArena arena;
  cn::CollectSink wave_sink, scalar_sink;
  cn::StreamingConsistency wave_sc, scalar_sc;
  std::uint64_t gen_ns = 0, wave_ns = 0, scalar_ns = 0, analyze_ns = 0;
  std::uint64_t engine_ns = 0, tokens = 0, nl = 0, nsc = 0;
  std::vector<double> trial_ms;
  bool identical = true, engine_agrees = true;
  for (std::uint32_t t = 0; t < trials; ++t) {
    spec.seed = cn::engine::trial_seed(seed, t);

    // The engine's own trial.
    const std::uint64_t e0 = now_ns();
    const cn::engine::RunResult r = cn::engine::run_backend(spec, ctx);
    const std::uint64_t e1 = now_ns();
    spans.add("engine.trial", kNoSpan, t, e0, e1);
    engine_ns += e1 - e0;
    trial_ms.push_back(static_cast<double>(e1 - e0) / 1e6);
    out.check(r.ok(), "engine trial " + std::to_string(t) + ": " + r.error);

    // The same trial, phase by phase.
    const std::uint64_t a = now_ns();
    const std::uint32_t root = spans.open("trial.phases", kNoSpan, t, a);
    cn::Xoshiro256 rng(spec.seed);
    const cn::TimedExecution exec = cn::generate_workload(net, wl, rng);
    const std::uint64_t b = now_ns();
    wave_sink.reset();
    const cn::SimulationResult w =
        cn::simulate_wave_stream(exec, arena, wave_sink);
    const std::uint64_t c = now_ns();
    wave_sc.reset();
    wave_sc.on_records(wave_sink.trace());
    wave_sc.finish();
    const std::uint64_t d = now_ns();
    spans.add("sim.generate", root, t, a, b);
    spans.add("sim.wave", root, t, b, c);
    spans.add("trace.analyze", root, t, c, d);
    spans.close(root, d);

    // The scalar interpreter on the same execution.
    scalar_sink.reset();
    const std::uint64_t s0 = now_ns();
    const cn::SimulationResult s =
        cn::simulate_stream(exec, arena, scalar_sink);
    const std::uint64_t s1 = now_ns();
    spans.add("sim.scalar", kNoSpan, t, s0, s1);
    scalar_sc.reset();
    scalar_sc.on_records(scalar_sink.trace());
    scalar_sc.finish();

    out.check(w.ok() && s.ok(), "trial " + std::to_string(t) +
                                    " failed to simulate: " + w.error +
                                    s.error);
    identical = identical && wave_sink.trace() == scalar_sink.trace() &&
                same_report(wave_sc.report(), scalar_sc.report());
    engine_agrees = engine_agrees && same_report(r.report, wave_sc.report());
    gen_ns += b - a;
    wave_ns += c - b;
    analyze_ns += d - c;
    scalar_ns += s1 - s0;
    tokens += wave_sink.trace().size();
    nl += wave_sc.report().non_linearizable.size();
    nsc += wave_sc.report().non_sequentially_consistent.size();
  }
  out.check(identical,
            "wave and scalar interpreters disagree on a decomposed trial");
  out.check(engine_agrees,
            "engine report differs from the phase-by-phase replay");
  out.check(tokens == std::uint64_t{trials} * kTokensPerTrial,
            "decomposed trials produced " + std::to_string(tokens) +
                " tokens");
  TrialLedger led;
  const auto per_token = [&](std::uint64_t ns) {
    return tokens == 0 ? 0.0
                       : static_cast<double>(ns) / static_cast<double>(tokens);
  };
  led.generate_ns_per_token = per_token(gen_ns);
  led.wave_ns_per_token = per_token(wave_ns);
  led.scalar_ns_per_token = per_token(scalar_ns);
  led.analyze_ns_per_token = per_token(analyze_ns);
  led.trial_ms_p50 = median(trial_ms);
  led.engine_self_frac =
      engine_ns == 0 ? 0.0
                     : (static_cast<double>(engine_ns) -
                        static_cast<double>(gen_ns + wave_ns + analyze_ns)) /
                           static_cast<double>(engine_ns);
  led.f_nl = tokens == 0 ? 0.0 : static_cast<double>(nl) / tokens;
  led.f_nsc = tokens == 0 ? 0.0 : static_cast<double>(nsc) / tokens;
  return led;
}

RunOutcome run_sweep_stream(const Options& opt) {
  RunOutcome out;
  const double leg_s = opt.trace ? opt.seconds / 2 : opt.seconds;

  // Warm-up (not measured): half a second of calls loads the backend
  // registry and lets the allocator settle. With a single warm-up call,
  // some runs measured tear-down in an earlier allocator state, about
  // 1.5x faster, and the run-to-run spread doubled.
  {
    RunOutcome scratch;
    run_leg(cn::make_bitonic(kWidth), opt.seed, 0.5, 1u << 30, nullptr,
            scratch);
  }

  const cn::Network net = cn::make_bitonic(kWidth);
  const SweepLeg leg = run_leg(net, opt.seed, leg_s, 0, nullptr, out);
  out.check(leg.calls > 0, "no sweep call completed");

  const double tokens_per_s = quiet_rate(leg.call_rate);
  const double trials = static_cast<double>(leg.calls * kTrialsPerCall);
  out.notes.push_back(
      "sweep: " + std::to_string(leg.calls) + " calls x " +
      std::to_string(kTrialsPerCall) + " trials on " +
      std::to_string(sweep_threads()) + " threads, " +
      std::to_string(leg.tokens) + " tokens; trials with a non-linearizable "
      "token " + std::to_string(leg.lin_trials) + ", non-SC " +
      std::to_string(leg.sc_trials) + " (of " +
      std::to_string(static_cast<std::uint64_t>(trials)) + ")");
  out.notes.push_back(
      "sweep_tokens_per_s " + std::to_string(tokens_per_s) +
      " tokens/s (= throughput_rps, the upper decile of call rates: a token "
      "is one counting request; whole-run rate " +
      std::to_string(rate(leg.tokens, leg.wall_ns)) + ")");
  out.notes.push_back(
      "latency samples: " + std::to_string(leg.calls) +
      " sweep calls; p99 = lower decile of " +
      std::to_string(leg.latency.windows()) +
      " window p99s (whole-run p99 " +
      std::to_string(leg.latency.quantile_us(0.99)) + " us)");

  if (!opt.trace) {
    out.metric("throughput_rps", tokens_per_s, "req/s");
    out.metric("latency_p50_us", leg.latency.p50_us(), "us");
    out.metric("latency_p99_us", leg.latency.p99_us(), "us");
    out.metric("setup_s", quiet_time(leg.setup_s), "s");
    out.metric("teardown_s", quiet_time(leg.teardown_s), "s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    return out;
  }

  // Traced leg: one span per engine::sweep call.
  const SweepLeg traced =
      run_leg(net, opt.seed, leg_s, 1u << 20, &out.spans, out);
  const TrialLedger trials_led =
      decompose_trials(opt.seed, kDecomposedTrials, out.spans, out);
  const LayerReplay replay = replay_layers(opt.seed, 16);

  const double measured =
      static_cast<double>(leg.cpu_ns) /
      static_cast<double>(std::max<std::uint64_t>(leg.tokens, 1));
  const double explained = trials_led.generate_ns_per_token +
                           trials_led.wave_ns_per_token +
                           trials_led.analyze_ns_per_token;
  out.ledger = {{"measured_cpu_ns_per_token", measured},
                {"sim.generate_ns_per_token", trials_led.generate_ns_per_token},
                {"sim.wave_ns_per_token", trials_led.wave_ns_per_token},
                {"trace.analyze_ns_per_token", trials_led.analyze_ns_per_token},
                {"explained_ns_per_token", explained},
                {"unexplained_ns_per_token", measured - explained},
                {"explained_frac", explained / measured}};
  out.metric("tracing.overhead_ratio",
             quiet_rate(traced.call_rate) / tokens_per_s, "ratio");
  out.metric("trace.f_nl", trials_led.f_nl, "ratio");
  out.metric("trace.f_nsc", trials_led.f_nsc, "ratio");
  out.metric("engine.sweep_ms.p50", traced.latency.p50_us() / 1e3, "ms");
  out.metric("ledger.measured_ns_per_op", measured, "ns");
  out.metric("ledger.unexplained_ns_per_op", measured - explained, "ns");
  out.metric("ledger.explained_frac", explained / measured, "ratio");
  add_layer_metrics(out, replay, trials_led);
  return out;
}

}  // namespace pb
