// The canonical step order of a timed execution, produced chunk by chunk
// for the wave interpreter (simulate_wave_with, pristine or under a fault
// overlay; sim/simulator.hpp).
//
// The scalar interpreter pops steps in the total order (time, rank,
// token, hop). The paper's timed-execution model (Section 2.2, rule 3)
// runs a process's tokens one after another, so every process's steps
// form one already-sorted run: the process's tokens in hop-0 key order,
// each followed by its own hops. WaveOrder groups the plans into those
// runs and cuts the order into time windows, the calendar-queue idea:
// a window takes, from every run, the steps up to its end time (a
// prefix of the run, found by a walk with no compares across runs),
// counting-sorts them by bucket floor((t - t_lo) * scale) — monotone in
// time — and orders each bucket by the full key. That is O(E)
// independent passes for E steps, with O(window) scratch beyond the
// runs: each window is sorted straight into the chunk buffer, and only
// a group of steps sharing one instant can make a window exceed its
// target.
//
// A run is sorted exactly when its process has no step-order overlap.
// Tokens are ordered by hop-0 key and each token's own steps are sorted
// (times non-decreasing, `hop` breaking equal times), so the run can
// only break at a token boundary; a break there means the next token's
// hop 0 precedes the previous token's last step — the next token enters
// while the previous one is still in flight, which is the overlap the
// scalar interpreter rejects. build() reports it, and the caller falls
// back to the scalar interpreter.
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
  /// Groups `exec`'s plans into per-process runs and readies the order.
  /// `exec` must have passed validate() (so times are finite and ranks
  /// are numbers) and carry no token with the reserved id max(TokenId);
  /// it and `stop` must outlive the order.
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
  /// A run's cursor: its head step, as a token position plus a hop.
  struct Run {
    const double* times;  ///< Head token's crossing times.
    std::uint32_t plan;   ///< Head token's plan index, order_[pos].
    std::uint32_t pos;    ///< Head token's index in order_.
    std::uint32_t end;    ///< One past the run's last index in order_.
    std::uint32_t hop;    ///< Head step's hop.
    std::uint32_t last;   ///< Last hop of the head token.
  };
  std::uint32_t last_hop(const TokenPlan& p) const noexcept;
  bool advance(Run& r) const noexcept;
  double time_of(WaveEvent e) const noexcept;
  bool step_before(double ta, WaveEvent a, WaveEvent b) const noexcept;
  void fill_window(std::size_t room);

  const TokenPlan* plans_ = nullptr;
  std::uint32_t depth_ = 0;
  std::span<const std::uint32_t> stop_;
  /// Plan indices grouped by process, each group in hop-0 key order.
  std::vector<std::uint32_t> order_;
  std::vector<Run> live_;  ///< Runs with steps left, in any order.
  /// A window's per-bucket step counts, then its scatter cursors.
  std::vector<std::uint32_t> bucket_;
  /// Sorted steps: the chunk being filled, then up to one window's
  /// overshoot carried into the next chunk.
  std::vector<WaveEvent> chunk_;
  std::size_t filled_ = 0;  ///< Sorted steps held in chunk_.
  std::size_t handed_ = 0;  ///< Of those, returned by the last call.
  double lo_ = 0.0;       ///< Earliest head time over live_.
  double last_ = 0.0;     ///< Latest step time of the execution.
  double spacing_ = 0.0;  ///< Expected time between consecutive steps.
  std::size_t runs_ = 0;
  std::size_t remaining_ = 0;
};

}  // namespace cn
