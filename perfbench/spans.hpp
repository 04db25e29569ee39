// In-memory spans for the traced benchmark run, and the self-time
// arithmetic over them. A span is one timed call into a layer: its name,
// start and end on the steady clock, the span that caused it, and the
// request or trial it served. Spans of one thread go to that thread's
// recorder; recorders are merged after the threads join.
#pragma once

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace pb {

struct Span {
  const char* name = "";  ///< String literal: static lifetime.
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t parent = 0;  ///< Index of the parent span, or kNoSpan.
  std::uint64_t key = 0;     ///< Request or trial id.
};

inline constexpr std::uint32_t kNoSpan = 0xFFFFFFFFu;

/// Keeps at most `cap` spans; later ones are counted as dropped, so a
/// long traced leg stays bounded in memory. Root spans (no parent) are
/// always kept, so every retained child finds its parent.
class SpanRecorder {
 public:
  explicit SpanRecorder(std::size_t cap = 1u << 17) : cap_(cap) {}

  /// Sizes the buffer for `cap` spans, so recording never reallocates
  /// inside a timed loop.
  void reserve() { spans_.reserve(cap_ + 64); }

  /// Opens a span and returns its index (kNoSpan when dropped).
  std::uint32_t open(const char* name, std::uint32_t parent,
                     std::uint64_t key, std::uint64_t start_ns) {
    if (parent != kNoSpan && spans_.size() >= cap_) {
      ++dropped_;
      return kNoSpan;
    }
    spans_.push_back(Span{name, start_ns, start_ns, parent, key});
    return static_cast<std::uint32_t>(spans_.size() - 1);
  }

  void close(std::uint32_t index, std::uint64_t end_ns) {
    if (index != kNoSpan) spans_[index].end_ns = end_ns;
  }

  /// Records a finished span.
  std::uint32_t add(const char* name, std::uint32_t parent, std::uint64_t key,
                    std::uint64_t start_ns, std::uint64_t end_ns) {
    const std::uint32_t i = open(name, parent, key, start_ns);
    close(i, end_ns);
    return i;
  }

  /// Appends another recorder's spans under this recorder's cap,
  /// re-basing their parent indices (a span whose parent was dropped is
  /// dropped too).
  void absorb(const SpanRecorder& other) {
    std::vector<std::uint32_t> index(other.spans_.size(), kNoSpan);
    for (std::size_t i = 0; i < other.spans_.size(); ++i) {
      Span s = other.spans_[i];
      if (s.parent != kNoSpan) {
        s.parent = index[s.parent];
        if (s.parent == kNoSpan) {
          ++dropped_;
          continue;
        }
      }
      index[i] = open(s.name, s.parent, s.key, s.start_ns);
      close(index[i], s.end_ns);
    }
    dropped_ += other.dropped_;
  }

  const std::vector<Span>& spans() const noexcept { return spans_; }
  std::uint64_t dropped() const noexcept { return dropped_; }

  /// Writes one CSV row per span: index, parent (-1 for roots), name,
  /// start and end (ns, steady clock), key.
  bool write_csv(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "index,parent,name,start_ns,end_ns,key\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << i << ',';
      if (s.parent == kNoSpan) {
        out << -1;
      } else {
        out << s.parent;
      }
      out << ',' << s.name << ',' << s.start_ns << ',' << s.end_ns << ','
          << s.key << '\n';
    }
    return static_cast<bool>(out);
  }

 private:
  std::size_t cap_;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (the union of the children's intervals,
/// clipped to the parent, so overlapping children count once).
inline std::vector<std::uint64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> kids(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent != kNoSpan && s.parent < spans.size()) {
      kids[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<std::uint64_t> self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::uint64_t lo = spans[i].start_ns;
    const std::uint64_t hi = std::max(spans[i].end_ns, lo);
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::uint64_t covered = 0;
    std::uint64_t cursor = lo;  // Everything before cursor is counted.
    for (auto [a, b] : iv) {
      a = std::max(a, cursor);
      b = std::min(b, hi);
      if (b > a) {
        covered += b - a;
        cursor = b;
      }
    }
    self[i] = (hi - lo) - covered;
  }
  return self;
}

/// Total and self time per span name, with the span count.
struct NameTotals {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
};

inline std::map<std::string, NameTotals> totals_by_name(
    const std::vector<Span>& spans) {
  const std::vector<std::uint64_t> self = self_times(spans);
  std::map<std::string, NameTotals> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    NameTotals& t = out[spans[i].name];
    ++t.count;
    t.total_ns += spans[i].end_ns - spans[i].start_ns;
    t.self_ns += self[i];
  }
  return out;
}

}  // namespace pb
