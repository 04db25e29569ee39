// Shared pieces of the repository benchmark (see README.md): clocks,
// CPU time, quantiles, the arrival schedule, the result record every
// workload fills, and the entry points of the three workloads and the
// layer replays.
#pragma once

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <ctime>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "spans.hpp"
#include "util/rng.hpp"

namespace pb {

/// Steady-clock nanoseconds: the clock the service stamps arrivals with.
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline std::uint64_t cpu_clock_ns(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// CPU time of every thread of this process.
inline std::uint64_t process_cpu_ns() {
  return cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID);
}

/// CPU time of the calling thread.
inline std::uint64_t thread_cpu_ns() {
  return cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID);
}

/// A /proc/self/status line's value in MiB (the file reports kB); 0
/// when the line is missing.
inline double status_mib(const std::string& key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(key + ":", 0) == 0) {
      return std::stod(line.substr(key.size() + 1)) / 1024.0;
    }
  }
  return 0.0;
}

/// Peak resident memory the program allocated, in MiB: VmHWM, the high
/// water mark of this program's own address space, less the file-backed
/// pages (binary and shared libraries) resident at the call. Code pages
/// are mapped by the warm-up and stay mapped, so what remains is the
/// peak of heap, stacks and buffers. The file-backed part (about 4 MiB)
/// depends on the host's page cache, since a fault maps neighbouring
/// pages only when they are cached, not on the program.
inline double peak_rss_mb() {
  return status_mib("VmHWM") - status_mib("RssFile") - status_mib("RssShmem");
}

/// The resident-memory lines of /proc/self/status, for the notes.
inline std::string rss_breakdown() {
  std::string out;
  for (const char* key : {"VmHWM", "RssAnon", "RssFile", "RssShmem"}) {
    out += (out.empty() ? "" : ", ") + std::string(key) + " " +
           std::to_string(status_mib(key)) + " MiB";
  }
  return out;
}

/// The `steal` and total jiffies of /proc/stat's first line (its first
/// eight fields): time the host gave to others while this machine's
/// CPUs had work. A run's share of it is its noise witness.
struct HostCpu {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};

inline HostCpu host_cpu() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  HostCpu h;
  std::uint64_t v = 0;
  for (int i = 0; i < 8 && stat >> v; ++i) {
    h.total += v;
    if (i == 7) h.steal = v;
  }
  return h;
}

/// Pins the calling thread to CPU `cpu` (mod the CPU count) for the
/// object's lifetime, then restores the thread's previous mask. Threads
/// inherit their creator's mask, so a pin held while a component starts
/// its threads also places those threads.
class ScopedPin {
 public:
  explicit ScopedPin(unsigned cpu) {
    saved_ok_ =
        pthread_getaffinity_np(pthread_self(), sizeof(saved_), &saved_) == 0;
    const unsigned ncpu = std::max(1u, std::thread::hardware_concurrency());
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu % ncpu, &set);
    pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
  }
  ~ScopedPin() {
    if (saved_ok_) {
      pthread_setaffinity_np(pthread_self(), sizeof(saved_), &saved_);
    }
  }
  ScopedPin(const ScopedPin&) = delete;
  ScopedPin& operator=(const ScopedPin&) = delete;

 private:
  cpu_set_t saved_{};
  bool saved_ok_ = false;
};

/// Seed of the k-th session / call of a run: a SplitMix64 hash of the
/// run seed and k, so every part of a run is a pure function of --seed.
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t k) {
  cn::SplitMix64 sm(seed ^ (0x9E3779B97F4A7C15ull * (k + 1)));
  return sm.next();
}

/// Open-loop arrival schedule: `n` Poisson arrivals at `rate_per_s`, as
/// nanosecond offsets from the session start. Pure in (seed, rate, n).
inline std::vector<std::uint64_t> poisson_schedule(std::uint64_t seed,
                                                   double rate_per_s,
                                                   std::size_t n) {
  cn::Xoshiro256 rng(seed);
  std::vector<std::uint64_t> at(n);
  const double mean_gap_ns = 1e9 / rate_per_s;
  double t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    t += -std::log1p(-rng.unit()) * mean_gap_ns;
    at[i] = static_cast<std::uint64_t>(t);
  }
  return at;
}

/// Exact quantile (nearest rank) of `v`; reorders v. 0 for empty input.
template <typename T>
double quantile(std::vector<T>& v, double q) {
  if (v.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::min<double>(std::ceil(q * static_cast<double>(v.size())),
                       static_cast<double>(v.size())));
  const std::size_t k = rank == 0 ? 0 : rank - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return static_cast<double>(v[k]);
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// How a run reports a quantity it samples many times (session set-up,
/// tear-down and rate, call rate, window p99s): the level the program
/// holds in the quiet tenth of its samples. A time reports its
/// lower decile, a rate its upper decile. On a shared host the share of
/// CPU time stolen from this machine ranged from under 1% to 17%
/// between runs minutes apart; that moved the closed loop's mean session
/// rate over 4x and a trimmed mean of session tear-downs by 0.2 of
/// itself, while stolen stretches leave some samples of every run clean.
/// A change in the program moves every sample, so it moves these too.
inline double quiet_time(std::vector<double> v) { return quantile(v, 0.10); }
inline double quiet_rate(std::vector<double> v) { return quantile(v, 0.90); }

/// The latencies of a run, summarized as they arrive instead of kept: a
/// count per nanosecond below kExactNs and per 1/1024 of an octave above
/// it (memory fixed at construction), plus the p99 of each consecutive
/// window of `window` samples. quantile_us() is exact below 65.5 µs and
/// within 0.1% above.
///
/// p50_us() is over every sample: bursts that touch fewer than half the
/// samples do not move a median. p99_us() is the lower decile of the
/// window p99s (see quiet_time): the tail the program holds through the
/// quiet stretches of the run. On a shared host a stolen stretch delays
/// every request in flight, and such bursts move a whole-run p99 (or a
/// median of window p99s) by up to 100x between runs of the same code.
/// The service workloads use windows of 100 samples: with 1000, a host
/// stalling each CPU about 100 times a second left almost no window
/// clean, and the open loop's figure rose from 16 µs to 270 µs; with
/// 100 it rose from 14 µs to 23 µs. A tail the program itself
/// produces on a few percent of requests shows in nearly every window,
/// so it still moves this figure; a rarer one shows only in the notes'
/// whole-run p99.
class LatencyStats {
 public:
  explicit LatencyStats(std::size_t window = 1000)
      : exact_(kExactNs, 0), log_(kLogBuckets, 0), window_(window) {
    cur_.reserve(window_);
  }

  void add(std::uint64_t ns) {
    ++count_;
    max_ = std::max(max_, ns);
    if (ns < kExactNs) {
      ++exact_[ns];
    } else {
      ++log_[log_bucket(ns)];
    }
    cur_.push_back(ns);
    if (cur_.size() == window_) {
      window_p99_.push_back(quantile(cur_, 0.99));
      cur_.clear();
    }
  }

  std::uint64_t count() const noexcept { return count_; }

  /// Quantile (nearest rank) over every sample, in µs.
  double quantile_us(double q) const {
    if (count_ == 0) return 0.0;
    const auto rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               std::ceil(q * static_cast<double>(count_))));
    if (rank >= count_) return static_cast<double>(max_) / 1e3;
    std::uint64_t seen = 0;
    for (std::uint64_t v = 0; v < kExactNs; ++v) {
      seen += exact_[v];
      if (seen >= rank) return static_cast<double>(v) / 1e3;
    }
    for (std::size_t b = 0; b < kLogBuckets; ++b) {
      seen += log_[b];
      if (seen >= rank) {
        return std::min(bucket_floor(b), static_cast<double>(max_)) / 1e3;
      }
    }
    return static_cast<double>(max_) / 1e3;
  }

  double p50_us() const { return quantile_us(0.50); }

  /// The lower decile of the window p99s (see the class comment); a
  /// last partial window counts when it holds at least half a window.
  double p99_us() const { return window_p99_quantile(0.10); }
  /// The median of the window p99s, for the notes.
  double median_window_p99_us() const { return window_p99_quantile(0.50); }

  double max_us() const { return static_cast<double>(max_) / 1e3; }
  std::size_t windows() const { return window_p99_.size(); }

 private:
  static constexpr int kExactBits = 16;
  static constexpr std::uint64_t kExactNs = 1u << kExactBits;
  static constexpr int kSubBits = 10;
  static constexpr std::size_t kLogBuckets = (64 - kExactBits) << kSubBits;

  /// Octave above 2^16 and the 10 bits after the leading one.
  static std::size_t log_bucket(std::uint64_t ns) {
    const int top = 63 - __builtin_clzll(ns);
    const std::uint64_t sub = (ns >> (top - kSubBits)) & ((1u << kSubBits) - 1);
    return (static_cast<std::size_t>(top - kExactBits) << kSubBits) + sub;
  }
  static double bucket_floor(std::size_t b) {
    const int top = static_cast<int>(b >> kSubBits) + kExactBits;
    const double sub = static_cast<double>(b & ((1u << kSubBits) - 1));
    return std::ldexp(1.0 + sub / (1u << kSubBits), top);
  }

  /// The q-quantile of the window p99s, in µs.
  double window_p99_quantile(double q) const {
    std::vector<double> p = window_p99_;
    if (cur_.size() >= window_ / 2 || p.empty()) {
      std::vector<std::uint64_t> tail = cur_;
      if (!tail.empty()) p.push_back(quantile(tail, 0.99));
    }
    if (p.empty()) return 0.0;
    std::sort(p.begin(), p.end());
    return p[static_cast<std::size_t>(q * static_cast<double>(p.size() - 1))] /
           1e3;
  }

  std::vector<std::uint32_t> exact_;
  std::vector<std::uint32_t> log_;
  std::vector<std::uint64_t> cur_;
  std::vector<double> window_p99_;
  std::uint64_t count_ = 0;
  std::uint64_t max_ = 0;
  std::size_t window_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

/// What a workload run produced. `metrics` holds the end-to-end metrics
/// (untraced run) or the per-layer metrics (traced run); `notes` are the
/// human-readable lines printed before the result (sample counts, the
/// noise witness, checks).
struct RunOutcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_failures;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;
  SpanRecorder spans;
  /// Ledger lines written next to the span file.
  std::vector<std::pair<std::string, double>> ledger;

  bool correct() const noexcept { return check_failures.empty(); }
  void check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
};

/// Costs of the layers driven directly ("replay"), in the shape the
/// workload produced.
struct LayerReplay {
  double notify_nowaiter_ns = 0.0;
  double wake_p50_us = 0.0;
  double wake_p99_us = 0.0;
  double queue_push_ns = 0.0;
  double queue_pop_ns = 0.0;
  double increment_batch_ns_per_token = 0.0;
  double increment_ns = 0.0;
  double histogram_record_ns = 0.0;
  double compiled_ns_per_token = 0.0;
  double wave_ns_per_token = 0.0;
};

/// Replays each service- and core-layer class on its own; `batch` is
/// the increment_batch size to price (the workload's observed mean).
LayerReplay replay_layers(std::uint64_t seed, std::uint32_t batch);

/// One experiment trial split into its phases (see sweep_workload.cpp).
struct TrialLedger {
  double generate_ns_per_token = 0.0;
  double scalar_ns_per_token = 0.0;
  double wave_ns_per_token = 0.0;
  double analyze_ns_per_token = 0.0;
  double trial_ms_p50 = 0.0;
  double engine_self_frac = 0.0;
  double f_nl = 0.0;
  double f_nsc = 0.0;
};

/// Runs `trials` sweep_stream trials phase by phase, with spans, and
/// checks that the scalar and wave interpreters and the engine agree.
TrialLedger decompose_trials(std::uint64_t seed, std::uint32_t trials,
                             SpanRecorder& spans, RunOutcome& out);

/// Appends every per-layer metric, with 0 for the layers `out`'s
/// workload does not call (already-set metrics keep their values).
void add_layer_metrics(RunOutcome& out, const LayerReplay& replay,
                       const TrialLedger& trials);

RunOutcome run_svc_open_idle(const Options& opt);
RunOutcome run_svc_closed_batch(const Options& opt);
RunOutcome run_sweep_stream(const Options& opt);

}  // namespace pb
