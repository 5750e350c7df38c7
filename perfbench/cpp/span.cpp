#include "span.hpp"

#include <algorithm>
#include <fstream>

namespace perfbench {

std::int64_t covered_length(
    std::vector<std::pair<std::int64_t, std::int64_t>> intervals,
    std::int64_t lo, std::int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  std::int64_t covered = 0;
  std::int64_t reach = lo;  // everything below `reach` is already counted
  for (auto [start, end] : intervals) {
    start = std::max(start, reach);
    end = std::min(end, hi);
    if (end > start) {
      covered += end - start;
      reach = end;
    }
  }
  return covered;
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(
          span.start_ns, span.end_ns);
    }
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    self[i] = span.end_ns - span.start_ns -
              covered_length(std::move(children[i]), span.start_ns, span.end_ns);
  }
  return self;
}

int Tracer::open(const char* name, std::uint64_t items) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.id = id_;
  span.items = items;
  spans_.push_back(span);
  const int index = static_cast<int>(spans_.size() - 1);
  stack_.push_back(index);
  spans_.back().start_ns = now_ns();  // last, so set-up cost is not counted
  return index;
}

void Tracer::close(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  stack_.pop_back();
}

std::map<std::string, LayerTotals> Tracer::totals() const {
  const std::vector<std::int64_t> self = self_times(spans_);
  std::map<std::string, LayerTotals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    LayerTotals& t = out[spans_[i].name];
    t.self_ns += self[i];
    t.items += spans_[i].items;
    t.self_samples_ns.push_back(static_cast<double>(self[i]));
  }
  return out;
}

bool Tracer::write_csv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::vector<std::int64_t> self = self_times(spans_);
  out << "index,parent,name,id,start_ns,end_ns,self_ns,items\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << i << ',' << s.parent << ',' << s.name << ',' << s.id << ','
        << s.start_ns << ',' << s.end_ns << ',' << self[i] << ',' << s.items
        << '\n';
  }
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace perfbench
