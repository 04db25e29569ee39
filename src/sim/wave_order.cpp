#include "sim/wave_order.hpp"

#include <algorithm>
#include <bit>
#include <limits>

namespace cn {

namespace {

/// Key of an exhausted run: after every real step, because real tokens
/// never carry the reserved id.
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr TokenId kExhausted = std::numeric_limits<TokenId>::max();

/// (time, rank, token) strict order. Written with `<` both ways so that
/// an exhausted run loses every match against a live one even if a time
/// or rank is NaN; for ordinary numbers it is the interpreters' order.
/// `hop` never decides: two heads always belong to different tokens.
bool key_before(double ta, double ra, TokenId toka, double tb, double rb,
                TokenId tokb) {
  if (ta < tb) return true;
  if (tb < ta) return false;
  if (ra < rb) return true;
  if (rb < ra) return false;
  return toka < tokb;
}

}  // namespace

bool WaveOrder::before(const Leaf& a, const Leaf& b) noexcept {
  return key_before(a.time, a.rank, a.token, b.time, b.rank, b.token);
}

std::uint32_t WaveOrder::last_hop(const TokenPlan& p) const noexcept {
  return p.token < stop_.size() ? std::min(stop_[p.token], depth_) : depth_;
}

void WaveOrder::load(Leaf& l) const noexcept {
  const TokenPlan& p = plans_[order_[l.pos]];
  l.time = p.times[0];
  l.rank = p.rank;
  l.token = p.token;
  l.hop = 0;
  l.last = last_hop(p);
  l.times = p.times.data();
}

bool WaveOrder::build(const TimedExecution& exec,
                      std::span<const std::uint32_t> stop) {
  plans_ = exec.plans.data();
  depth_ = exec.net->depth();
  stop_ = stop;
  runs_ = 0;
  remaining_ = 0;

  order_.clear();
  for (std::uint32_t i = 0; i < exec.plans.size(); ++i) {
    const TokenPlan& p = exec.plans[i];
    if (p.token < stop.size() && stop[p.token] == 0) continue;
    order_.push_back(i);
  }
  // Plans usually arrive grouped by process in issue order (the workload
  // generator's layout), so this is mostly the is_sorted scan.
  const auto by_run = [this](std::uint32_t x, std::uint32_t y) {
    const TokenPlan& a = plans_[x];
    const TokenPlan& b = plans_[y];
    if (a.process != b.process) return a.process < b.process;
    return key_before(a.times[0], a.rank, a.token, b.times[0], b.rank,
                      b.token);
  };
  if (!std::is_sorted(order_.begin(), order_.end(), by_run)) {
    std::sort(order_.begin(), order_.end(), by_run);
  }

  // Cut the runs; each token boundary inside a run must keep the run
  // sorted, which is the no-overlap condition (see the header).
  leaves_.clear();
  for (std::uint32_t k = 0; k < order_.size(); ++k) {
    const TokenPlan& cur = plans_[order_[k]];
    const std::uint32_t last = last_hop(cur);
    remaining_ += last + 1;
    if (k > 0 && plans_[order_[k - 1]].process == cur.process) {
      const TokenPlan& prev = plans_[order_[k - 1]];
      if (!key_before(prev.times[last_hop(prev)], prev.rank, prev.token,
                      cur.times[0], cur.rank, cur.token)) {
        remaining_ = 0;
        return false;
      }
      continue;
    }
    if (!leaves_.empty()) leaves_.back().end = k;
    Leaf l{};
    l.pos = k;
    load(l);
    leaves_.push_back(l);
  }
  runs_ = leaves_.size();
  if (leaves_.empty()) return true;
  leaves_.back().end = static_cast<std::uint32_t>(order_.size());

  // Loser tree over M = bit_ceil(runs) leaves, padded with exhausted
  // ones: node n in [1, M) has children 2n and 2n+1, leaf i sits at
  // position M + i. tree_[n] holds the loser of node n's match, with its
  // head time cached in loser_time_[n], and tree_[0] the overall winner.
  // The initial matches run bottom-up, with each node's winner kept in
  // win_. (M == 1: win_[1] is leaf 0.)
  const std::size_t m = std::bit_ceil(leaves_.size());
  Leaf empty{};
  empty.time = kInf;
  empty.rank = kInf;
  empty.token = kExhausted;
  leaves_.resize(m, empty);
  tree_.assign(m, 0);
  loser_time_.assign(m, 0.0);
  win_.assign(2 * m, 0);
  for (std::size_t i = 0; i < m; ++i) {
    win_[m + i] = static_cast<std::uint32_t>(i);
  }
  for (std::size_t n = m - 1; n >= 1; --n) {
    const std::uint32_t a = win_[2 * n];
    const std::uint32_t b = win_[2 * n + 1];
    const bool b_wins = before(leaves_[b], leaves_[a]);
    win_[n] = b_wins ? b : a;
    tree_[n] = b_wins ? a : b;
    loser_time_[n] = leaves_[tree_[n]].time;
  }
  tree_[0] = win_[1];
  chunk_.resize(kWaveChunk);
  return true;
}

void WaveOrder::replay(std::uint32_t leaf) noexcept {
  // Match outcomes are coin flips to a branch predictor, so the winner
  // and the stored loser are swapped with masks rather than branches;
  // only equal (or unordered) times take the full-key branch.
  std::uint32_t winner = leaf;
  std::uint64_t wt = std::bit_cast<std::uint64_t>(leaves_[leaf].time);
  for (std::size_t n = (leaf + leaves_.size()) >> 1; n > 0; n >>= 1) {
    const std::uint32_t other = tree_[n];
    const std::uint64_t ot = std::bit_cast<std::uint64_t>(loser_time_[n]);
    const double otd = std::bit_cast<double>(ot);
    const double wtd = std::bit_cast<double>(wt);
    bool swap = otd < wtd;
    if (!(swap | (wtd < otd))) [[unlikely]] {
      swap = before(leaves_[other], leaves_[winner]);
    }
    const std::uint64_t mask = 0 - static_cast<std::uint64_t>(swap);
    const std::uint32_t mask32 = static_cast<std::uint32_t>(mask);
    tree_[n] = (winner & mask32) | (other & ~mask32);
    loser_time_[n] = std::bit_cast<double>((wt & mask) | (ot & ~mask));
    winner = (other & mask32) | (winner & ~mask32);
    wt = (ot & mask) | (wt & ~mask);
  }
  tree_[0] = winner;
}

std::span<const WaveEvent> WaveOrder::next_chunk() {
  const std::size_t n = std::min(kWaveChunk, remaining_);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t w = tree_[0];
    Leaf& l = leaves_[w];
    chunk_[i] = {order_[l.pos], l.hop};
    if (l.hop < l.last) {
      l.time = l.times[++l.hop];
    } else if (++l.pos < l.end) {
      load(l);
    } else {
      l.time = kInf;
      l.rank = kInf;
      l.token = kExhausted;
    }
    replay(w);
  }
  remaining_ -= n;
  return {chunk_.data(), n};
}

}  // namespace cn
