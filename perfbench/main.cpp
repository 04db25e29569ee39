// cnbench: the repository benchmark's program. One workload per run:
//
//   cnbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--source <id>] [--out <dir>]
//
// Prints a host/build descriptor line, human-readable notes (sample
// counts, the generator's lateness, the host's stolen CPU time as the
// run's noise witness, failed checks), and as the LAST line one JSON
// object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// with every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1). A traced run also writes its spans and its layer ledger
// to the --out directory. Exit code: 0 when every output check passed,
// 1 when one failed (the result still prints, every op counted failed),
// 2 on a usage error (no result).
#include <sys/prctl.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>

#include "bench.hpp"

namespace pb {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Every per-layer metric, in report order (README.md maps each to the
/// end-to-end metric it should move). Layers a workload does not call
/// report 0.
constexpr MetricDef kLayerMetrics[] = {
    {"tracing.overhead_ratio", "ratio"},
    {"service.try_submit_ns.p50", "ns"},
    {"service.try_submit_ns.p99", "ns"},
    {"service.submit_batch_ns.p50", "ns"},
    {"service.submit_batch_ns.p99", "ns"},
    {"service.start_ms", "ms"},
    {"service.stop_ms", "ms"},
    {"service.store_latency_us.p50", "us"},
    {"service.store_latency_us.p99", "us"},
    {"service.mean_batch", "count"},
    {"service.batches", "count"},
    {"service.ingress_cells", "count"},
    {"service.rejected", "count"},
    {"service.dropped", "count"},
    {"service.audit_ok", "count"},
    {"client.wait_ns.p50", "ns"},
    {"client.wait_ns.p99", "ns"},
    {"eventcount.notify_nowaiter_ns", "ns"},
    {"eventcount.wake_us.p50", "us"},
    {"eventcount.wake_us.p99", "us"},
    {"queue.push_ns", "ns"},
    {"queue.pop_ns", "ns"},
    {"concurrent.increment_batch_ns_per_token", "ns"},
    {"concurrent.increment_ns", "ns"},
    {"histogram.record_ns", "ns"},
    {"trace.f_nl", "ratio"},
    {"trace.f_nsc", "ratio"},
    {"trace.analyze_ns_per_token", "ns"},
    {"sim.generate_ns_per_token", "ns"},
    {"sim.scalar_ns_per_token", "ns"},
    {"sim.wave_ns_per_token", "ns"},
    {"core.compiled_ns_per_token", "ns"},
    {"core.wave_ns_per_token", "ns"},
    {"engine.trial_ms.p50", "ms"},
    {"engine.self_frac", "ratio"},
    {"engine.sweep_ms.p50", "ms"},
    {"loadgen.late_us.p99", "us"},
    {"loadgen.late_us.max", "us"},
    {"ledger.measured_ns_per_op", "ns"},
    {"ledger.unexplained_ns_per_op", "ns"},
    {"ledger.explained_frac", "ratio"},
};

constexpr MetricDef kEndToEndMetrics[] = {
    {"throughput_rps", "req/s"}, {"latency_p50_us", "us"},
    {"latency_p99_us", "us"},    {"setup_s", "s"},
    {"teardown_s", "s"},         {"peak_rss_mb", "MiB"},
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

std::string host_descriptor(const Options& opt, const std::string& source) {
  std::ostringstream os;
  os << "{\"nproc\":" << std::thread::hardware_concurrency()
     << ",\"cpu\":\"" << json_escape(cpu_model()) << "\",\"compiler\":\""
     << json_escape(PB_COMPILER) << "\",\"flags\":\""
     << json_escape(PB_BUILD_FLAGS) << "\",\"build_type\":\""
     << json_escape(PB_BUILD_TYPE) << "\",\"cn_native\":"
     << (PB_CN_NATIVE ? "true" : "false") << ",\"source\":\""
     << json_escape(source) << "\",\"workload\":\"" << opt.workload
     << "\",\"seed\":" << opt.seed << ",\"seconds\":" << opt.seconds
     << ",\"trace\":" << (opt.trace ? 1 : 0) << "}";
  return os.str();
}

/// Writes the traced run's spans (CSV) and its ledger with the per-name
/// self-time table (JSON).
void write_trace_files(const Options& opt, const std::string& host,
                       const RunOutcome& out) {
  std::error_code ec;
  std::filesystem::create_directories(opt.out_dir, ec);
  const std::string base = opt.out_dir + "/" + opt.workload;
  if (!out.spans.write_csv(base + "-spans.csv")) {
    std::cerr << "cnbench: could not write " << base << "-spans.csv\n";
  }
  std::ofstream led(base + "-ledger.json");
  led << "{\"host\":" << host << ",\n \"ledger\":{";
  for (std::size_t i = 0; i < out.ledger.size(); ++i) {
    led << (i ? "," : "") << "\n  \"" << out.ledger[i].first
        << "\":" << json_number(out.ledger[i].second);
  }
  led << "},\n \"spans_kept\":" << out.spans.spans().size()
      << ",\"spans_dropped\":" << out.spans.dropped()
      << ",\n \"self_time_by_span\":{";
  bool first = true;
  for (const auto& [name, t] : totals_by_name(out.spans.spans())) {
    led << (first ? "" : ",") << "\n  \"" << name << "\":{\"count\":"
        << t.count << ",\"total_ns\":" << t.total_ns
        << ",\"self_ns\":" << t.self_ns << "}";
    first = false;
  }
  led << "}}\n";
}

int usage(const std::string& why) {
  std::cerr << "cnbench: " << why
            << "\nusage: cnbench --workload svc_open_idle|svc_closed_batch|"
               "sweep_stream --seed N --seconds S --trace 0|1 [--source ID] "
               "[--out DIR]\n";
  return 2;
}

}  // namespace

void add_layer_metrics(RunOutcome& out, const LayerReplay& r,
                       const TrialLedger& t) {
  const std::map<std::string, double> values = {
      {"eventcount.notify_nowaiter_ns", r.notify_nowaiter_ns},
      {"eventcount.wake_us.p50", r.wake_p50_us},
      {"eventcount.wake_us.p99", r.wake_p99_us},
      {"queue.push_ns", r.queue_push_ns},
      {"queue.pop_ns", r.queue_pop_ns},
      {"concurrent.increment_batch_ns_per_token",
       r.increment_batch_ns_per_token},
      {"concurrent.increment_ns", r.increment_ns},
      {"histogram.record_ns", r.histogram_record_ns},
      {"core.compiled_ns_per_token", r.compiled_ns_per_token},
      {"core.wave_ns_per_token", r.wave_ns_per_token},
      {"trace.analyze_ns_per_token", t.analyze_ns_per_token},
      {"sim.generate_ns_per_token", t.generate_ns_per_token},
      {"sim.scalar_ns_per_token", t.scalar_ns_per_token},
      {"sim.wave_ns_per_token", t.wave_ns_per_token},
      {"engine.trial_ms.p50", t.trial_ms_p50},
      {"engine.self_frac", t.engine_self_frac},
  };
  std::map<std::string, Metric> have;
  for (const Metric& m : out.metrics) have.emplace(m.name, m);
  out.metrics.clear();
  for (const MetricDef& d : kLayerMetrics) {
    const auto set = have.find(d.name);
    const auto it = values.find(d.name);
    if (set != have.end()) {
      out.metrics.push_back(set->second);
    } else {
      out.metric(d.name, it == values.end() ? 0.0 : it->second, d.unit);
    }
  }
}

}  // namespace pb

int main(int argc, char** argv) {
  using namespace pb;
  Options opt;
  std::string source = "unknown";
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + key);
    const std::string val = argv[++i];
    try {
      if (key == "--workload") {
        opt.workload = val;
        have_workload = true;
      } else if (key == "--seed") {
        opt.seed = std::stoull(val);
        have_seed = true;
      } else if (key == "--seconds") {
        opt.seconds = std::stod(val);
        have_seconds = true;
      } else if (key == "--trace") {
        if (val != "0" && val != "1") return usage("--trace takes 0 or 1");
        opt.trace = val == "1";
        have_trace = true;
      } else if (key == "--source") {
        source = val;
      } else if (key == "--out") {
        opt.out_dir = val;
      } else {
        return usage("unknown argument " + key);
      }
    } catch (const std::exception&) {
      return usage("bad value for " + key + ": " + val);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return usage("--workload, --seed, --seconds and --trace are required");
  }
  if (!(opt.seconds > 0.0 && opt.seconds <= 60.0)) {
    return usage("--seconds must be in (0, 60]");
  }

  // No transparent huge pages: under a host policy of `always`, whether
  // a 2 MiB stretch of the heap is backed by one huge page depends on
  // where the heap happens to land, so peak_rss_mb would move in 2 MiB
  // steps between runs of the same code, and page-fault costs with it.
  prctl(PR_SET_THP_DISABLE, 1, 0, 0, 0);

  const HostCpu cpu0 = host_cpu();
  RunOutcome out;
  if (opt.workload == "svc_open_idle") {
    out = run_svc_open_idle(opt);
  } else if (opt.workload == "svc_closed_batch") {
    out = run_svc_closed_batch(opt);
  } else if (opt.workload == "sweep_stream") {
    out = run_sweep_stream(opt);
  } else {
    return usage("unknown workload " + opt.workload);
  }
  const HostCpu cpu1 = host_cpu();
  const double total = static_cast<double>(cpu1.total - cpu0.total);
  out.notes.push_back(
      "host steal (noise witness): " +
      std::to_string(total > 0.0 ? 100.0 * static_cast<double>(
                                               cpu1.steal - cpu0.steal) /
                                       total
                                 : 0.0) +
      "% of CPU time during the run");
  out.notes.push_back("memory at exit: " + rss_breakdown());

  const std::string host = host_descriptor(opt, source);
  std::cout << "# host " << host << "\n";
  for (const std::string& n : out.notes) std::cout << "# " << n << "\n";
  for (const std::string& f : out.check_failures) {
    std::cout << "# CHECK FAILED: " << f << "\n";
  }
  if (opt.trace) write_trace_files(opt, host, out);

  // The metric set must be exactly the declared one, each value finite.
  std::set<std::string> want;
  if (opt.trace) {
    for (const MetricDef& d : kLayerMetrics) want.insert(d.name);
  } else {
    for (const MetricDef& d : kEndToEndMetrics) want.insert(d.name);
  }
  std::set<std::string> got;
  for (const Metric& m : out.metrics) {
    out.check(got.insert(m.name).second, "metric reported twice: " + m.name);
    out.check(want.count(m.name) != 0, "undeclared metric: " + m.name);
    out.check(std::isfinite(m.value), "metric not finite: " + m.name);
  }
  out.check(got == want, "metric set differs from the declared set");
  out.check(out.attempted > 0, "no operation attempted");

  const bool correct = out.correct();
  for (const std::string& f : out.check_failures) {
    std::cerr << "cnbench: check failed: " << f << "\n";
  }
  const std::uint64_t attempted = std::max<std::uint64_t>(out.attempted, 1);
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted
            << ", \"failed\": " << (correct ? out.failed : attempted)
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    std::cout << (i ? ", " : "") << "\"" << m.name
              << "\": {\"value\": " << json_number(m.value)
              << ", \"unit\": \"" << m.unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}
