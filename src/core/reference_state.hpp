// The original graph-walking execution engine, preserved verbatim as the
// executable specification of NetworkState's semantics.
//
// NetworkState (core/sequential.hpp) now routes tokens through the flat
// tables of core/compiled.hpp. ReferenceNetworkState is the pre-compiled
// implementation — it re-derives every hop from the Network graph
// (wire().at() lookups, endpoint-kind branches, `% fan_out()`), exactly as
// the paper's Section 2.2 semantics read. It exists for two reasons:
//
//   * differential testing: tests/compiled_test.cpp drives both engines
//     through identical schedules and asserts byte-identical steps, values,
//     and history variables;
//   * perf baselining: bench_micro measures it as the "before" side of the
//     compiled fast path's steps/sec comparison (BENCH_micro.json).
//
// It is built as its own library, cn_reference, outside cn_core: only
// those two targets link it. Do not use it in new code paths; it is
// deliberately slow.
#pragma once

#include <cstdint>
#include <vector>

#include "core/sequential.hpp"
#include "core/topology.hpp"

namespace cn {

/// Graph-walking twin of NetworkState with the same stepping API.
class ReferenceNetworkState {
 public:
  explicit ReferenceNetworkState(const Network& net);

  const Network& network() const noexcept { return *net_; }

  void enter(TokenId token, ProcessId proc, std::uint32_t source);
  bool done(TokenId token) const;
  Value value(TokenId token) const;
  ProcessId process_of(TokenId token) const;
  Step step(TokenId token);
  Value traverse(TokenId token);
  Value shepherd(TokenId token, ProcessId proc, std::uint32_t source);

  std::uint32_t in_flight() const noexcept { return in_flight_; }
  bool quiescent() const noexcept { return in_flight_ == 0; }

  PortIndex balancer_position(NodeIndex b) const { return balancer_pos_.at(b); }
  Value counter_next(std::uint32_t sink) const { return counter_next_.at(sink); }

  std::uint64_t balancer_in_count(NodeIndex b, PortIndex i) const;
  std::uint64_t balancer_out_count(NodeIndex b, PortIndex j) const;
  std::uint64_t sink_count(std::uint32_t sink) const {
    return sink_count_.at(sink);
  }
  std::uint64_t source_count(std::uint32_t source) const {
    return source_count_.at(source);
  }
  std::uint64_t total_entered() const noexcept { return total_entered_; }
  std::uint64_t total_exited() const noexcept { return total_exited_; }

  void set_recording(bool on) noexcept { recording_ = on; }
  const std::vector<Step>& log() const noexcept { return log_; }
  void clear_log() { log_.clear(); }

 private:
  struct TokenState {
    ProcessId process = 0;
    WireIndex wire = kInvalidWire;
    bool entered = false;
    bool finished = false;
    Value value = 0;
  };

  TokenState& token_ref(TokenId token);
  const TokenState& token_ref(TokenId token) const;

  const Network* net_;
  std::vector<PortIndex> balancer_pos_;
  std::vector<Value> counter_next_;
  std::vector<TokenState> tokens_;
  std::vector<std::uint64_t> source_count_;
  std::vector<std::uint64_t> sink_count_;
  std::vector<std::uint64_t> in_counts_;
  std::vector<std::uint64_t> out_counts_;
  std::vector<std::size_t> in_offset_;
  std::vector<std::size_t> out_offset_;
  std::uint64_t total_entered_ = 0;
  std::uint64_t total_exited_ = 0;
  std::uint32_t in_flight_ = 0;
  bool recording_ = false;
  std::vector<Step> log_;
};

}  // namespace cn
