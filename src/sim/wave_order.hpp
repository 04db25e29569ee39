// The canonical step order of a timed execution, produced chunk by chunk
// for the wave interpreters (simulate_wave, fault::simulate_faulted_wave).
//
// The scalar interpreters pop steps in the total order (time, rank,
// token, hop). The paper's timed-execution model (Section 2.2, rule 3)
// runs a process's tokens one after another, so that order is a merge of
// one already-sorted run per process: the process's tokens in hop-0 key
// order, each followed by its own hops. WaveOrder groups the plans into
// those runs and merges them with a loser tree over the runs' cached
// head keys, straight from the plans, one chunk at a time — O(E log P)
// for E steps of P processes, with O(plans) scratch and no event list.
//
// A run is sorted exactly when its process has no step-order overlap.
// Tokens are ordered by hop-0 key and each token's own steps are sorted
// (times non-decreasing, `hop` breaking equal times), so the run can
// only break at a token boundary; a break there means the next token's
// hop 0 precedes the previous token's last step — the next token enters
// while the previous one is still in flight, which is the overlap the
// scalar interpreters reject. build() reports it, and the caller falls
// back to its scalar interpreter.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sim/timed_execution.hpp"

namespace cn {

/// One step of the canonical order: the token's plan, as an index into
/// TimedExecution::plans, and the hop (0-based layer crossing).
struct WaveEvent {
  std::uint32_t plan;
  std::uint32_t hop;
};

/// Steps per wave round. Large enough to amortize the per-chunk bucket
/// pass and sink batch, small enough that a chunk's cursors stay
/// cache-resident.
inline constexpr std::size_t kWaveChunk = 4096;

class WaveOrder {
 public:
  /// Groups `exec`'s plans into per-process runs and readies the merge.
  /// `exec` must have passed validate() and carry no token with the
  /// reserved id max(TokenId); it and `stop` must outlive the merge.
  ///
  /// `stop` is empty or indexed by token id (the fault overlay's
  /// `lost_before_hop`; ids past its end count as unbounded): a token
  /// with stop 0 contributes no steps, one with stop h contributes hops
  /// 0..min(h, depth). Returns false when some process's run is not
  /// sorted, i.e. the schedule has a step-order overlap; the order is
  /// unusable then.
  bool build(const TimedExecution& exec,
             std::span<const std::uint32_t> stop = {});

  /// Per-process runs of the last successful build(): one per process
  /// that has a step, however sparse the process ids.
  std::size_t runs() const noexcept { return runs_; }

  /// Steps of the canonical order not yet returned by next_chunk().
  std::size_t remaining() const noexcept { return remaining_; }

  /// The next min(kWaveChunk, remaining()) steps of the canonical order;
  /// valid until the next call.
  std::span<const WaveEvent> next_chunk();

 private:
  /// A run's cursor: the cached key of its head step plus the position
  /// of that step in the run.
  struct Leaf {
    double time;
    double rank;
    TokenId token;
    std::uint32_t hop;   ///< Head step's hop.
    std::uint32_t last;  ///< Last hop of the head step's token.
    std::uint32_t pos;   ///< Head token's index in order_.
    std::uint32_t end;   ///< One past the run's last index in order_.
    const double* times;  ///< Head token's crossing times.
  };
  static bool before(const Leaf& a, const Leaf& b) noexcept;
  std::uint32_t last_hop(const TokenPlan& p) const noexcept;
  void load(Leaf& l) const noexcept;
  void replay(std::uint32_t leaf) noexcept;

  const TokenPlan* plans_ = nullptr;
  std::uint32_t depth_ = 0;
  std::span<const std::uint32_t> stop_;
  /// Plan indices grouped by process, each group in hop-0 key order.
  std::vector<std::uint32_t> order_;
  std::vector<Leaf> leaves_;       ///< Power-of-two count; extras empty.
  std::vector<std::uint32_t> tree_;  ///< [0] winner, [1, M) match losers.
  std::vector<double> loser_time_;   ///< Head time of each tree_[n] loser.
  std::vector<std::uint32_t> win_;   ///< Match winners while building.
  std::vector<WaveEvent> chunk_;
  std::size_t runs_ = 0;
  std::size_t remaining_ = 0;
};

}  // namespace cn
