#include "sim/wave_order.hpp"

#include <algorithm>
#include <limits>

namespace cn {

namespace {

/// Steps a window aims to hold, and buckets per step: at half a step
/// per bucket, most buckets need no ordering at all.
constexpr std::size_t kWindow = 1024;
constexpr std::size_t kBucketsPerStep = 2;
/// Steps a window may run past the end of the chunk it fills; they are
/// carried into the next chunk.
constexpr std::size_t kSlack = 64;
/// Buckets up to this size are ordered by insertion, fuller ones sorted.
constexpr std::uint32_t kInsertionMax = 16;

constexpr double kMaxTime = std::numeric_limits<double>::max();
constexpr double kMinWidth = std::numeric_limits<double>::denorm_min();

/// The interpreters' (time, rank, token) order of two different tokens'
/// steps.
bool key_before(double ta, double ra, TokenId toka, double tb, double rb,
                TokenId tokb) {
  if (ta != tb) return ta < tb;
  if (ra != rb) return ra < rb;
  return toka < tokb;
}

}  // namespace

std::uint32_t WaveOrder::last_hop(const TokenPlan& p) const noexcept {
  return p.token < stop_.size() ? std::min(stop_[p.token], depth_) : depth_;
}

bool WaveOrder::advance(Run& r) const noexcept {
  if (r.hop < r.last) {
    ++r.hop;
    return true;
  }
  if (++r.pos == r.end) return false;
  r.plan = order_[r.pos];
  const TokenPlan& p = plans_[r.plan];
  r.times = p.times.data();
  r.last = last_hop(p);
  r.hop = 0;
  return true;
}

double WaveOrder::time_of(WaveEvent e) const noexcept {
  return plans_[e.plan].times[e.hop];
}

bool WaveOrder::step_before(double ta, WaveEvent a,
                            WaveEvent b) const noexcept {
  const TokenPlan& pb = plans_[b.plan];
  const double tb = pb.times[b.hop];
  if (ta != tb) return ta < tb;
  if (a.plan == b.plan) return a.hop < b.hop;
  const TokenPlan& pa = plans_[a.plan];
  return key_before(ta, pa.rank, pa.token, tb, pb.rank, pb.token);
}

bool WaveOrder::build(const TimedExecution& exec,
                      std::span<const std::uint32_t> stop) {
  plans_ = exec.plans.data();
  depth_ = exec.net->depth();
  stop_ = stop;
  runs_ = 0;
  remaining_ = 0;
  filled_ = 0;
  handed_ = 0;

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
  // sorted, which is the no-overlap condition (see the header). The
  // first and last times bound the span the windows will cover.
  live_.clear();
  double lo = kMaxTime;
  double hi = -kMaxTime;
  for (std::uint32_t k = 0; k < order_.size(); ++k) {
    const TokenPlan& cur = plans_[order_[k]];
    const std::uint32_t last = last_hop(cur);
    remaining_ += last + 1;
    hi = std::max(hi, cur.times[last]);
    if (k > 0 && plans_[order_[k - 1]].process == cur.process) {
      const TokenPlan& prev = plans_[order_[k - 1]];
      if (!key_before(prev.times[last_hop(prev)], prev.rank, prev.token,
                      cur.times[0], cur.rank, cur.token)) {
        remaining_ = 0;
        return false;
      }
      continue;
    }
    if (!live_.empty()) live_.back().end = k;
    live_.push_back({cur.times.data(), order_[k], k, 0, 0, last});
    lo = std::min(lo, cur.times[0]);
  }
  runs_ = live_.size();
  if (live_.empty()) return true;
  live_.back().end = static_cast<std::uint32_t>(order_.size());

  // The first window assumes evenly spaced steps; later ones adapt.
  lo_ = lo;
  last_ = hi;
  spacing_ = std::clamp((hi - lo) / static_cast<double>(remaining_),
                        kMinWidth, kMaxTime);
  bucket_.resize(kBucketsPerStep * kWindow);
  if (chunk_.size() < kWaveChunk + kSlack) chunk_.resize(kWaveChunk + kSlack);
  return true;
}

void WaveOrder::fill_window(std::size_t room) {
  // Every step left in the runs has time >= lo_, the earliest head, so
  // a window [lo, hi] takes a prefix of each run and, across runs, every
  // step that sorts before any step it leaves behind. A window aims at
  // min(kWindow, room) steps; when that covers every step left, it spans
  // them all.
  const double lo = lo_;
  const std::size_t left = remaining_ - filled_;
  const std::size_t target = std::min<std::size_t>({room, left, kWindow});
  const bool all = target == left;
  const auto nb = static_cast<std::uint32_t>(kBucketsPerStep * target);
  double width = std::min(all ? last_ - lo : spacing_ * target, kMaxTime);
  std::uint32_t* const count = bucket_.data();
  for (;;) {
    const double hi = std::min(lo + width, kMaxTime);
    const bool instant = !(lo < hi);
    // Bucket b holds times with floor((t - lo) * scale) == b, clamped to
    // the last bucket: monotone in t, so buckets are in time order. A
    // width below 2^-960 is first scaled up by an exact power of two so
    // that the scale stays finite; an instant is one bucket.
    const double pre = width < 0x1p-960 ? 0x1p+960 : 1.0;
    const double scale = instant ? 0.0 : nb / (width * pre);
    const auto bucket = [lo, pre, scale, nb](double t) {
      const double x = (t - lo) * pre * scale;
      return x < nb ? static_cast<std::uint32_t>(x) : nb - 1;
    };

    // Count pass: the window's histogram, runs untouched. It stops
    // early once the window is far past the chunk's room; an instant,
    // which cannot be narrowed, is always counted whole.
    std::fill_n(count, nb, 0u);
    const std::size_t limit = instant ? std::numeric_limits<std::size_t>::max()
                                      : 2 * room + kSlack;
    std::size_t total = 0;
    for (const Run& r : live_) {
      Run c = r;
      while (c.times[c.hop] <= hi) {
        ++count[bucket(c.times[c.hop])];
        if (++total > limit || !advance(c)) break;
      }
      if (total > limit) break;
    }

    // Take whole buckets: all of them when the window fits the chunk,
    // else the longest prefix that fits, running past the chunk's end
    // by at most kSlack steps. A window counted only in part, or whose
    // first bucket alone is too full, is retried narrower, at most half
    // as wide: down to where the room runs out, or to its first bucket.
    std::uint32_t take = nb;
    if (total > room && !instant) {
      std::size_t sum = 0;
      std::uint32_t b = 0;
      while (sum + count[b] <= room) sum += count[b++];
      const bool counted = total <= limit;
      if (counted && sum + count[b] - room <= kSlack) {
        take = b + 1;
      } else if (counted && sum > 0) {
        take = b;
      } else {
        width = width / nb * std::min(std::max(b, 1u), nb / 2);
        continue;
      }
    }

    // Emit pass: scatter the taken steps into chunk_ by bucket.
    std::size_t pos = filled_;
    bool crowded = false;
    for (std::uint32_t b = 0; b < take; ++b) {
      const std::uint32_t c = count[b];
      crowded |= c > kInsertionMax;
      count[b] = static_cast<std::uint32_t>(pos);
      pos += c;
    }
    if (chunk_.size() < pos) chunk_.resize(pos);
    WaveEvent* const out = chunk_.data();
    double next_lo = kMaxTime;
    for (std::size_t i = 0; i < live_.size();) {
      Run& r = live_[i];
      bool more = true;
      while (r.times[r.hop] <= hi) {
        const std::uint32_t b = bucket(r.times[r.hop]);
        if (b >= take) break;
        out[count[b]++] = {r.plan, r.hop};
        if (!(more = advance(r))) break;
      }
      if (!more) {
        r = live_.back();
        live_.pop_back();
        continue;
      }
      next_lo = std::min(next_lo, r.times[r.hop]);
      ++i;
    }

    // Order the buckets by the full key: sort the rare crowded ones
    // (steps sharing an instant), then one insertion pass over the
    // window, in which a step only ever moves within its bucket.
    const auto before = [this](WaveEvent a, WaveEvent b) {
      return step_before(time_of(a), a, b);
    };
    if (crowded) {
      auto begin = static_cast<std::uint32_t>(filled_);
      for (std::uint32_t b = 0; b < take; begin = count[b++]) {
        if (count[b] - begin > kInsertionMax) {
          std::sort(out + begin, out + count[b], before);
        }
      }
    }
    WaveEvent* const first = out + filled_;
    double prev = time_of(*first);
    for (WaveEvent* i = first + 1; i != out + pos; ++i) {
      const double t = time_of(*i);
      if (t > prev) {
        prev = t;
        continue;
      }
      // The step at i ends as the largest so far either way: prev holds.
      const WaveEvent e = *i;
      WaveEvent* j = i;
      for (; j != first && step_before(t, e, j[-1]); --j) *j = j[-1];
      *j = e;
    }

    // The next window's spacing estimate: this window's, growing at
    // most 8-fold. An instant says nothing about spacing.
    const std::size_t taken = pos - filled_;
    filled_ = pos;
    lo_ = next_lo;
    if (!instant) {
      const double used = take == nb ? width : width / nb * take;
      spacing_ = std::clamp(used / static_cast<double>(taken), kMinWidth,
                            spacing_ * 8);
    }
    return;
  }
}

std::span<const WaveEvent> WaveOrder::next_chunk() {
  // The previous window's overshoot opens this chunk.
  if (handed_ > 0) {
    std::copy(chunk_.begin() + static_cast<std::ptrdiff_t>(handed_),
              chunk_.begin() + static_cast<std::ptrdiff_t>(filled_),
              chunk_.begin());
    filled_ -= handed_;
  }
  const std::size_t n = std::min(kWaveChunk, remaining_);
  while (filled_ < n) fill_window(n - filled_);
  handed_ = n;
  remaining_ -= n;
  return {chunk_.data(), n};
}

}  // namespace cn
