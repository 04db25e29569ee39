// The two service workloads. Both run 2 shards of B(8) and repeat a
// session -- construct + start(), a fixed amount of load, stop() --
// until the run's time is used, so set-up and tear-down are sampled
// several times per run and tear-down always merges the same amount of
// work, whatever the throughput.
//
//   svc_open_idle     open loop: one generator thread sends Poisson-spaced
//                     single try_submit calls at kOpenRate, unrecorded,
//                     and polls its outstanding slots between sends.
//   svc_closed_batch  closed loop: kClients threads call
//                     submit_batch(kClientBatch) and wait_done on the
//                     completion eventcount; recording on, with a live
//                     StreamingConsistency + DegradationAccumulator tee.
#include <algorithm>
#include <array>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "core/constructions.hpp"
#include "fault/fault.hpp"
#include "service/client.hpp"
#include "service/histogram.hpp"
#include "service/service.hpp"
#include "trace/sink.hpp"
#include "trace/streaming.hpp"

namespace pb {
namespace {

namespace svc = cn::service;

constexpr std::uint32_t kShards = 2;
constexpr std::uint32_t kWidth = 8;
/// Low enough that the workers keep running dry and parking, and that a
/// shared host's scheduling gaps cause no queue-full rejections. At
/// 200k req/s a worker still spinning through its idle yields caught
/// most requests, so p50 (3 µs) sat between the awake and the parked
/// mode and moved by 10% between runs; at 100k the typical request pays
/// the EventCount wake (p50 about 9 µs, within 2%).
constexpr double kOpenRate = 100'000.0;
constexpr std::size_t kOpenSessionRequests = 50'000;  // 0.5 s per session.
constexpr std::uint32_t kClients = 2;
constexpr std::uint32_t kClientBatch = 16;
/// 2^18 requests: about 40 ms of load and 60 ms of tear-down, so a run
/// samples tear-down a few hundred times.
constexpr std::uint64_t kClosedSessionRequests = 1u << 18;
/// Closed loop: batches per completion-rate window, about 3 ms.
constexpr std::size_t kRateWindow = 1000;
/// Unmeasured (but checked) sessions before the measured ones. The
/// first second of a process ran slow: closed-loop sessions at 4.3-5.8M
/// req/s against 7M+ after it, which doubled the run-to-run spread.
constexpr double kWarmupSeconds = 2.0;
/// Samples per latency window (see LatencyStats).
constexpr std::size_t kWindow = 100;
/// A request not seen complete this long after the last send fails the
/// run instead of hanging it.
constexpr std::uint64_t kDrainTimeoutNs = 10'000'000'000ull;

svc::ServiceConfig service_config(const cn::Network& net, std::uint64_t seed,
                                  bool record) {
  svc::ServiceConfig cfg;
  cfg.shards = kShards;
  cfg.net = &net;
  cfg.seed = seed;
  cfg.record = record;
  // CPU layout: shard s's worker on CPU s, the open loop's generator or
  // closed-loop client i on CPU kShards + i, the open loop's supervisor
  // on CPU kShards + 1. Unpinned, the generator and the workers shared
  // CPUs often enough to delay sends by milliseconds, which made the
  // open loop's tail a measure of the scheduler, not the service.
  cfg.pin_workers = true;
  return cfg;
}

bool is_value(std::uint64_t slot) {
  return slot != 0 && slot != svc::kDroppedSignal &&
         slot != svc::kRejectedSignal;
}

double seconds_of(std::uint64_t ns) { return static_cast<double>(ns) / 1e9; }

/// Everything the sessions of one leg add up.
struct Tally {
  std::uint64_t sessions = 0;
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  /// Completed requests per second: open loop, of each session's load
  /// phase (the offered rate holds it near kOpenRate); closed loop, of
  /// each window of kRateWindow consecutive batch completions, so a
  /// stolen stretch spoils a few windows instead of a session.
  std::vector<double> rate_rps;
  std::vector<double> session_rps;  ///< Of each session, for the notes.
  std::uint64_t service_cpu_ns = 0;  ///< Process CPU minus the bench threads.
  std::uint64_t in_call_ns = 0;      ///< Bench time inside submit calls.
  LatencyStats latency;
  LatencyStats late;
  LatencyStats calls;  ///< Traced leg: submit call durations.
  LatencyStats waits;  ///< Traced leg: client wait durations.
  std::vector<double> setup_s;
  std::vector<double> teardown_s;
  svc::LatencyHistogram store_latency;
  std::uint64_t batches = 0;
  std::uint64_t ingress_cells = 0;
  std::uint64_t rejected = 0;
  std::uint64_t dropped = 0;
  bool audit_ok = true;
  std::uint64_t records = 0;
  std::uint64_t nl_tokens = 0;
  std::uint64_t nsc_tokens = 0;

  double throughput() const { return quiet_rate(rate_rps); }
  double mean_batch() const {
    return batches == 0 ? 0.0
                        : static_cast<double>(completed) /
                              static_cast<double>(batches);
  }
};

/// Sorts the session's values and checks each completed value is
/// distinct, plus the service's own accounting.
void check_session(const svc::CountingService& service,
                   std::vector<std::uint64_t>& values, std::uint64_t session,
                   RunOutcome& out) {
  const std::string tag = "session " + std::to_string(session) + ": ";
  std::sort(values.begin(), values.end());
  out.check(std::adjacent_find(values.begin(), values.end()) == values.end(),
            tag + "a counter value was handed out twice");
  out.check(service.audit().ok(), tag + "residue audit failed");
  out.check(service.stats().completed == values.size(),
            tag + "service completed " +
                std::to_string(service.stats().completed) +
                " requests, clients saw " + std::to_string(values.size()));
}

void fold_stats(const svc::CountingService& service, Tally& t) {
  const svc::ServiceStats& st = service.stats();
  t.store_latency.merge(st.latency);
  t.batches += st.batches;
  t.ingress_cells += st.ingress_cells;
  t.rejected += st.rejected;
  t.dropped += st.dropped;
  t.audit_ok = t.audit_ok && service.audit().ok();
}

// --- svc_open_idle ---------------------------------------------------

void open_session(const cn::Network& net, std::uint64_t seed,
                  std::uint64_t session, Tally& t, SpanRecorder* spans,
                  RunOutcome& out) {
  const std::uint64_t n = kOpenSessionRequests;
  const std::vector<std::uint64_t> at = poisson_schedule(seed, kOpenRate, n);
  auto slots = std::make_unique<std::atomic<std::uint64_t>[]>(n);
  std::vector<std::uint32_t> outstanding;
  outstanding.reserve(4096);
  // Session-local sample buffers, sized up front so the generator never
  // reallocates inside the load loop.
  std::vector<std::uint64_t> values, latency, late, calls;
  values.reserve(n);
  latency.reserve(n);
  late.reserve(n);
  if (spans != nullptr) calls.reserve(n);

  // start() hands its caller's CPU mask to the supervisor thread: give
  // it a CPU of its own, then move this thread to the generator's CPU.
  auto pin = std::make_unique<ScopedPin>(kShards + 1);
  const std::uint64_t c0 = now_ns();
  svc::CountingService service(service_config(net, seed, false));
  service.start();
  const std::uint64_t c1 = now_ns();
  pin.reset();  // Restore the mask before taking the next pin.
  pin = std::make_unique<ScopedPin>(kShards);
  t.setup_s.push_back(seconds_of(c1 - c0));
  const std::uint32_t root =
      spans != nullptr ? spans->open("loadgen.session", kNoSpan, session, c0)
                       : kNoSpan;
  if (spans != nullptr) spans->add("service.start", root, session, c0, c1);

  std::uint64_t failed = 0;
  const std::uint64_t t0 = now_ns() + 100'000;  // First arrival 100 µs out.
  const auto poll = [&](std::uint64_t now) {
    for (std::size_t j = 0; j < outstanding.size();) {
      const std::uint32_t i = outstanding[j];
      const std::uint64_t v = slots[i].load(std::memory_order_acquire);
      if (v == 0) {
        ++j;
        continue;
      }
      if (is_value(v)) {
        values.push_back(v - 1);
        latency.push_back(now - (t0 + at[i]));
      } else {
        ++failed;
      }
      outstanding[j] = outstanding.back();
      outstanding.pop_back();
    }
  };

  const std::uint64_t cpu0 = process_cpu_ns();
  const std::uint64_t bench_cpu0 = thread_cpu_ns();
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t due = t0 + at[i];
    std::uint64_t now = now_ns();
    while (now < due) {
      poll(now);
      now = now_ns();
    }
    late.push_back(now - due);
    bool ok = false;
    if (spans != nullptr) {
      const std::uint64_t a = now_ns();
      ok = service.try_submit(0, due, &slots[i]);
      const std::uint64_t b = now_ns();
      spans->add("service.try_submit", root, i, a, b);
      calls.push_back(b - a);
      t.in_call_ns += b - a;
    } else {
      ok = service.try_submit(0, due, &slots[i]);
    }
    if (ok) {
      outstanding.push_back(static_cast<std::uint32_t>(i));
    } else {
      ++failed;
    }
  }
  const std::uint64_t deadline = now_ns() + kDrainTimeoutNs;
  for (std::uint64_t now = now_ns(); !outstanding.empty() && now < deadline;
       now = now_ns()) {
    poll(now);
  }
  const std::uint64_t t1 = now_ns();
  out.check(outstanding.empty(),
            std::to_string(outstanding.size()) + " requests never completed");
  failed += outstanding.size();
  t.service_cpu_ns +=
      (process_cpu_ns() - cpu0) - (thread_cpu_ns() - bench_cpu0);

  pin.reset();
  const std::uint64_t s0 = now_ns();
  service.stop();
  const std::uint64_t s1 = now_ns();
  t.teardown_s.push_back(seconds_of(s1 - s0));
  if (spans != nullptr) {
    spans->add("service.stop", root, session, s0, s1);
    spans->close(root, s1);
  }
  check_session(service, values, session, out);
  fold_stats(service, t);
  for (const std::uint64_t ns : latency) t.latency.add(ns);
  for (const std::uint64_t ns : late) t.late.add(ns);
  for (const std::uint64_t ns : calls) t.calls.add(ns);
  t.session_rps.push_back(static_cast<double>(values.size()) * 1e9 /
                          static_cast<double>(t1 - t0));
  t.rate_rps.push_back(t.session_rps.back());
  t.attempted += n;
  t.completed += values.size();
  t.failed += failed;
  ++t.sessions;
}

// --- svc_closed_batch ------------------------------------------------

struct ClientTally {
  std::vector<std::uint64_t> values;
  std::vector<std::uint64_t> latency;
  std::vector<std::uint64_t> done_at;  ///< When each batch was seen done.
  std::vector<std::uint64_t> call_ns;
  std::vector<std::uint64_t> wait_ns;
  std::uint64_t failed = 0;
  std::uint64_t cpu_ns = 0;
  std::uint64_t in_call_ns = 0;
  bool timed_out = false;
  SpanRecorder spans;
  /// Completion slots; they outlive the client thread, so a store that
  /// lands after a timed-out wait still has a target until stop().
  std::array<std::atomic<std::uint64_t>, kClientBatch> slots{};
};

void closed_client(svc::CountingService& service, std::uint32_t id,
                   std::uint64_t session, std::uint64_t batches,
                   bool traced, const std::atomic<bool>& go,
                   std::atomic<std::uint32_t>& ready, ClientTally& me) {
  auto& slots = me.slots;
  const svc::SubmitPolicy policy;  // Default wait gears.
  me.values.reserve(batches * kClientBatch);
  me.latency.reserve(batches);
  me.done_at.reserve(batches);
  if (traced) {
    me.call_ns.reserve(batches);
    me.wait_ns.reserve(batches);
    me.spans.reserve();
  }
  const ScopedPin pin(kShards + id);
  ready.fetch_add(1, std::memory_order_acq_rel);
  while (!go.load(std::memory_order_acquire)) {
  }
  const std::uint64_t cpu0 = thread_cpu_ns();
  const std::uint32_t root =
      traced ? me.spans.open("client.session", kNoSpan, session, now_ns())
             : kNoSpan;
  for (std::uint64_t b = 0; b < batches; ++b) {
    for (auto& s : slots) s.store(0, std::memory_order_relaxed);
    const std::uint64_t a = now_ns();
    const svc::CountingService::BatchResult r =
        service.submit_batch(id, a, slots.data(), kClientBatch);
    const std::uint64_t sent = now_ns();
    me.failed += r.rejected + r.shed;
    if (!r.admitted()) me.failed += kClientBatch;
    if (r.accepted > 0) {
      const std::uint64_t deadline = sent + kDrainTimeoutNs;
      for (auto& s : slots) {
        if (s.load(std::memory_order_acquire) == svc::kRejectedSignal) {
          continue;  // Counted from r.rejected.
        }
        const std::uint64_t v =
            svc::wait_done(s, deadline, policy, &service.completion_event());
        if (is_value(v)) {
          me.values.push_back(v - 1);
        } else {
          ++me.failed;
          me.timed_out = me.timed_out || v == 0;
        }
      }
    }
    const std::uint64_t seen = now_ns();
    me.latency.push_back(seen - a);
    me.done_at.push_back(seen);
    if (traced) {
      me.spans.add("service.submit_batch", root, b, a, sent);
      me.spans.add("client.wait", root, b, sent, seen);
      me.call_ns.push_back(sent - a);
      me.wait_ns.push_back(seen - sent);
      me.in_call_ns += sent - a;
    }
    if (me.timed_out) break;
  }
  me.spans.close(root, now_ns());
  me.cpu_ns = thread_cpu_ns() - cpu0;
}

void closed_session(const cn::Network& net, std::uint64_t seed,
                    std::uint64_t session, Tally& t, SpanRecorder* spans,
                    RunOutcome& out) {
  cn::StreamingConsistency checker;
  cn::fault::DegradationAccumulator degradation;
  cn::TeeSink tee(checker, degradation);
  const std::uint64_t batches = kClosedSessionRequests / kClients /
                                kClientBatch;

  const std::uint64_t c0 = now_ns();
  svc::CountingService service(service_config(net, seed, true), &tee);
  service.start();
  const std::uint64_t c1 = now_ns();
  t.setup_s.push_back(seconds_of(c1 - c0));

  std::array<ClientTally, kClients> clients;
  std::atomic<bool> go{false};
  std::atomic<std::uint32_t> ready{0};
  std::vector<std::thread> threads;
  for (std::uint32_t c = 0; c < kClients; ++c) {
    threads.emplace_back(closed_client, std::ref(service), c, session,
                         batches, spans != nullptr, std::cref(go),
                         std::ref(ready), std::ref(clients[c]));
  }
  while (ready.load(std::memory_order_acquire) < kClients) {
  }
  const std::uint64_t cpu0 = process_cpu_ns();
  const std::uint64_t main_cpu0 = thread_cpu_ns();
  const std::uint64_t t0 = now_ns();
  go.store(true, std::memory_order_release);
  for (std::thread& th : threads) th.join();
  const std::uint64_t t1 = now_ns();
  std::uint64_t bench_cpu = thread_cpu_ns() - main_cpu0;
  for (const ClientTally& c : clients) bench_cpu += c.cpu_ns;
  t.service_cpu_ns += (process_cpu_ns() - cpu0) - bench_cpu;

  const std::uint64_t s0 = now_ns();
  service.stop();
  tee.finish();
  const std::uint64_t s1 = now_ns();
  t.teardown_s.push_back(seconds_of(s1 - s0));

  std::vector<std::uint64_t> values, done_at;
  std::uint64_t failed = 0;
  for (ClientTally& c : clients) {
    done_at.insert(done_at.end(), c.done_at.begin(), c.done_at.end());
    values.insert(values.end(), c.values.begin(), c.values.end());
    for (const std::uint64_t ns : c.latency) t.latency.add(ns);
    for (const std::uint64_t ns : c.call_ns) t.calls.add(ns);
    for (const std::uint64_t ns : c.wait_ns) t.waits.add(ns);
    t.in_call_ns += c.in_call_ns;
    failed += c.failed;
    out.check(!c.timed_out, "a batch was not seen complete in time");
  }
  if (spans != nullptr) {
    const std::uint32_t root =
        spans->open("service.session", kNoSpan, session, c0);
    spans->add("service.start", root, session, c0, c1);
    spans->add("service.stop", root, session, s0, s1);
    spans->close(root, s1);
    for (const ClientTally& c : clients) spans->absorb(c.spans);
  }

  const std::uint64_t completed = values.size();
  const cn::ConsistencyReport& rep = checker.report();
  const cn::fault::Degradation deg =
      degradation.result(kShards * net.fan_out());
  const std::string tag = "session " + std::to_string(session) + ": ";
  out.check(deg.counting_violation == 0.0, tag + "counting violation");
  out.check(rep.total == completed,
            tag + "analyzer saw " + std::to_string(rep.total) +
                " records for " + std::to_string(completed) + " completions");
  check_session(service, values, session, out);
  fold_stats(service, t);
  t.records += rep.total;
  t.nl_tokens += rep.non_linearizable.size();
  t.nsc_tokens += rep.non_sequentially_consistent.size();
  t.session_rps.push_back(static_cast<double>(completed) * 1e9 /
                          static_cast<double>(t1 - t0));
  std::sort(done_at.begin(), done_at.end());
  for (std::size_t i = 0; i + kRateWindow < done_at.size(); i += kRateWindow) {
    t.rate_rps.push_back(static_cast<double>(kRateWindow * kClientBatch) *
                         1e9 /
                         static_cast<double>(done_at[i + kRateWindow] -
                                             done_at[i]));
  }
  t.attempted += batches * kClients * kClientBatch;
  t.completed += completed;
  t.failed += failed;
  ++t.sessions;
}

// --- legs and reporting ----------------------------------------------

using SessionFn = void (*)(const cn::Network&, std::uint64_t, std::uint64_t,
                           Tally&, SpanRecorder*, RunOutcome&);

/// Runs sessions until `seconds` have passed (at least one).
Tally run_leg(SessionFn session, std::uint64_t seed, double seconds,
              std::uint64_t first_session, std::size_t window,
              SpanRecorder* spans, RunOutcome& out) {
  const cn::Network net = cn::make_bitonic(kWidth);
  Tally t;
  t.latency = LatencyStats(window);
  const std::uint64_t budget = static_cast<std::uint64_t>(seconds * 1e9);
  const std::uint64_t begin = now_ns();
  for (std::uint64_t k = first_session;
       k == first_session || now_ns() - begin < budget; ++k) {
    session(net, derive_seed(seed, k), k, t, spans, out);
    if (!out.correct()) break;
  }
  return t;
}

void report_e2e(const Tally& t, RunOutcome& out) {
  out.metric("throughput_rps", t.throughput(), "req/s");
  out.metric("latency_p50_us", t.latency.p50_us(), "us");
  out.metric("latency_p99_us", t.latency.p99_us(), "us");
  out.metric("setup_s", quiet_time(t.setup_s), "s");
  out.metric("teardown_s", quiet_time(t.teardown_s), "s");
  out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
}

void add_notes(const Tally& t, RunOutcome& out) {
  out.notes.push_back(
      "sessions " + std::to_string(t.sessions) + ", attempted " +
      std::to_string(t.attempted) + ", completed " +
      std::to_string(t.completed) + ", failed " + std::to_string(t.failed) +
      ", failed_frac " +
      std::to_string(t.attempted == 0 ? 0.0
                                      : static_cast<double>(t.failed) /
                                            static_cast<double>(t.attempted)));
  out.notes.push_back(
      "latency samples " + std::to_string(t.latency.count()) +
      "; p99 = lower decile of " + std::to_string(t.latency.windows()) +
      " window p99s (whole-run p99 " +
      std::to_string(t.latency.quantile_us(0.99)) + " us; median window p99 " +
      std::to_string(t.latency.median_window_p99_us()) + " us)");
  out.notes.push_back(
      "rate, setup and teardown samples " + std::to_string(t.sessions) +
      " sessions (median session rate " + std::to_string(median(t.session_rps)) +
      " req/s, teardown " + std::to_string(median(t.teardown_s)) + " s)");
  if (t.late.count() > 0) {
    out.notes.push_back("loadgen lateness (noise witness): p99 " +
                        std::to_string(t.late.quantile_us(0.99)) + " us, max " +
                        std::to_string(t.late.max_us()) + " us over " +
                        std::to_string(t.late.count()) + " sends");
  }
}

/// The traced run of a service workload: an untraced leg, a traced leg
/// with spans around every submit and wait, then the layer replays.
void traced_run(SessionFn session, bool open_loop, std::size_t window,
                const Options& opt, RunOutcome& out) {
  const Tally plain = run_leg(session, opt.seed, opt.seconds / 2, 0, window,
                              nullptr, out);
  out.spans.reserve();
  // Decompose the sweep-shaped trials first: their few spans must not
  // fall to the span cap the traced leg fills.
  const TrialLedger trials = decompose_trials(opt.seed, 16, out.spans, out);
  const Tally t = run_leg(session, opt.seed, opt.seconds / 2, 1u << 20,
                          window, &out.spans, out);
  out.attempted = plain.attempted + t.attempted;
  out.failed = plain.failed + t.failed;
  add_notes(t, out);
  const double mean_batch = t.mean_batch();
  const LayerReplay replay = replay_layers(
      opt.seed, static_cast<std::uint32_t>(std::max(1.0, std::round(mean_batch))));

  out.metric("tracing.overhead_ratio", t.throughput() / plain.throughput(),
             "ratio");
  if (open_loop) {
    out.metric("service.try_submit_ns.p50", t.calls.quantile_us(0.50) * 1e3,
               "ns");
    out.metric("service.try_submit_ns.p99", t.calls.quantile_us(0.99) * 1e3,
               "ns");
    out.metric("loadgen.late_us.p99", t.late.quantile_us(0.99), "us");
    out.metric("loadgen.late_us.max", t.late.max_us(), "us");
  } else {
    out.metric("service.submit_batch_ns.p50",
               t.calls.quantile_us(0.50) * 1e3, "ns");
    out.metric("service.submit_batch_ns.p99",
               t.calls.quantile_us(0.99) * 1e3, "ns");
    out.metric("client.wait_ns.p50", t.waits.quantile_us(0.50) * 1e3, "ns");
    out.metric("client.wait_ns.p99", t.waits.quantile_us(0.99) * 1e3, "ns");
    const double recs = static_cast<double>(std::max<std::uint64_t>(t.records, 1));
    out.metric("trace.f_nl", static_cast<double>(t.nl_tokens) / recs, "ratio");
    out.metric("trace.f_nsc", static_cast<double>(t.nsc_tokens) / recs,
               "ratio");
  }
  out.metric("service.start_ms", quiet_time(t.setup_s) * 1e3, "ms");
  out.metric("service.stop_ms", quiet_time(t.teardown_s) * 1e3, "ms");
  out.metric("service.store_latency_us.p50",
             static_cast<double>(t.store_latency.p50()) / 1e3, "us");
  out.metric("service.store_latency_us.p99",
             static_cast<double>(t.store_latency.p99()) / 1e3, "us");
  out.metric("service.mean_batch", mean_batch, "count");
  out.metric("service.batches", static_cast<double>(t.batches), "count");
  out.metric("service.ingress_cells", static_cast<double>(t.ingress_cells),
             "count");
  out.metric("service.rejected", static_cast<double>(t.rejected), "count");
  out.metric("service.dropped", static_cast<double>(t.dropped), "count");
  out.metric("service.audit_ok", t.audit_ok ? 1.0 : 0.0, "count");

  // Ledger: what the layers cost alone, per request, against the CPU a
  // request costs in the running service (service threads plus the time
  // the bench threads spent inside submit calls).
  const double completed =
      static_cast<double>(std::max<std::uint64_t>(t.completed, 1));
  const double measured =
      static_cast<double>(t.service_cpu_ns + t.in_call_ns) / completed;
  // A single try_submit queues one cell; a submit_batch queues one cell
  // per shard its run touches.
  const double cells = open_loop ? 1.0 : static_cast<double>(t.ingress_cells) /
                                             completed;
  const double submits = open_loop ? 1.0 : 1.0 / kClientBatch;
  const double queue = (replay.queue_push_ns + replay.queue_pop_ns) * cells;
  const double notify = replay.notify_nowaiter_ns * submits;
  const double explained = queue + notify +
                           replay.increment_batch_ns_per_token +
                           replay.histogram_record_ns;
  out.ledger = {{"measured_ns_per_request", measured},
                {"queue.push_pop_ns_per_request", queue},
                {"eventcount.notify_nowaiter_ns_per_request", notify},
                {"concurrent.increment_batch_ns_per_request",
                 replay.increment_batch_ns_per_token},
                {"histogram.record_ns_per_request", replay.histogram_record_ns},
                {"explained_ns_per_request", explained},
                {"unexplained_ns_per_request", measured - explained},
                {"explained_frac", explained / measured}};
  out.metric("ledger.measured_ns_per_op", measured, "ns");
  out.metric("ledger.unexplained_ns_per_op", measured - explained, "ns");
  out.metric("ledger.explained_frac", explained / measured, "ratio");
  add_layer_metrics(out, replay, trials);
}

/// One service workload run, after kWarmupSeconds of warm-up sessions
/// (checked, not measured); `window` is the p99 window in samples.
RunOutcome run_service(SessionFn session, bool open_loop, std::size_t window,
                       const Options& opt) {
  RunOutcome out;
  const Tally warm = run_leg(session, opt.seed, kWarmupSeconds, 1u << 30,
                             window, nullptr, out);
  if (opt.trace) {
    traced_run(session, open_loop, window, opt, out);
  } else {
    const Tally t = run_leg(session, opt.seed, opt.seconds, 0, window,
                            nullptr, out);
    out.attempted = t.attempted;
    out.failed = t.failed;
    add_notes(t, out);
    report_e2e(t, out);
  }
  out.attempted += warm.attempted;
  out.failed += warm.failed;
  return out;
}

}  // namespace

RunOutcome run_svc_open_idle(const Options& opt) {
  return run_service(open_session, true, kWindow, opt);  // 1 ms.
}

RunOutcome run_svc_closed_batch(const Options& opt) {
  return run_service(closed_session, false, kWindow, opt);  // Batches.
}

}  // namespace pb
