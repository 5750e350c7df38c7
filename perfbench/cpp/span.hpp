// Batch-grained spans for the traced run (README.md, "Traced run").
//
// The benchmark wraps every call it makes into a layer's public API in a
// span: one per rx-burst, pop batch, report or epoch -- never per packet.
// Spans are kept in memory and written out at the end; per-layer metrics
// come from SELF time, a span's duration minus the part of it that its
// child spans cover (overlapping children count once).  A disabled tracer
// records nothing, so untraced runs execute the same code.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Rx-burst part of the span id for epoch-level calls (drain, rotate, ...).
inline constexpr std::uint32_t kEpochLevel = 0xffffffffu;

struct Span {
  const char* name = "";       ///< layer-qualified call, e.g. "flowtable.rotate"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;    ///< index of the enclosing span, -1 for roots
  std::uint64_t id = 0;        ///< (epoch << 32) | rx-burst, shared by its spans
  std::uint64_t items = 0;     ///< packets, records or lookups the call handled
};

/// Length of the union of `intervals` clipped to [lo, hi].  Overlapping
/// intervals count once.
[[nodiscard]] std::int64_t covered_length(
    std::vector<std::pair<std::int64_t, std::int64_t>> intervals,
    std::int64_t lo, std::int64_t hi);

/// Self time of every span: its duration minus covered_length() of its
/// direct children.
[[nodiscard]] std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

/// Per-name totals over a set of spans.
struct LayerTotals {
  std::int64_t self_ns = 0;
  std::uint64_t items = 0;
  std::vector<double> self_samples_ns;  ///< one per span

  /// Self nanoseconds per handled item (0 when no items were recorded).
  [[nodiscard]] double ns_per_item() const noexcept {
    return items ? static_cast<double>(self_ns) / static_cast<double>(items) : 0.0;
  }
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Id stamped on spans opened from now on.
  void set_id(std::uint32_t epoch, std::uint32_t burst) noexcept {
    id_ = (std::uint64_t{epoch} << 32) | burst;
  }

  /// Opens a span nested in the innermost open one; returns its index, or
  /// -1 when disabled.  Spans must close in reverse order of opening.
  int open(const char* name, std::uint64_t items = 0);
  void close(int index);
  /// Sets the item count of a span once the call has reported it.
  void set_items(int index, std::uint64_t items) noexcept {
    if (index >= 0) spans_[static_cast<std::size_t>(index)].items = items;
  }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Self-time totals by span name.
  [[nodiscard]] std::map<std::string, LayerTotals> totals() const;

  /// Writes every span as CSV (index,parent,name,id,start_ns,end_ns,self_ns,
  /// items).  Returns false on I/O failure.
  [[nodiscard]] bool write_csv(const std::string& path) const;

 private:
  bool enabled_;
  std::uint64_t id_ = 0;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, std::uint64_t items = 0)
      : tracer_(tracer), index_(tracer.open(name, items)) {}
  ~Scope() { tracer_.close(index_); }
  void set_items(std::uint64_t items) noexcept { tracer_.set_items(index_, items); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

}  // namespace perfbench
