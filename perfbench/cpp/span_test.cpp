// Unit test of the span arithmetic the per-layer ledger rests on: self time
// is a span's duration minus the UNION of its direct children's intervals,
// so overlapping children count once.  Exits non-zero on the first failure.
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "span.hpp"

namespace {

int failures = 0;

void expect_eq(long long got, long long want, const char* what) {
  if (got != want) {
    std::fprintf(stderr, "FAIL %s: got %lld, want %lld\n", what, got, want);
    ++failures;
  }
}

perfbench::Span span(std::int64_t start, std::int64_t end, int parent) {
  perfbench::Span s;
  s.name = "t";
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

}  // namespace

int main() {
  using perfbench::covered_length;
  using perfbench::self_times;

  expect_eq(covered_length({}, 0, 100), 0, "no intervals");
  expect_eq(covered_length({{10, 20}, {30, 45}}, 0, 100), 25, "disjoint");
  expect_eq(covered_length({{10, 30}, {20, 40}}, 0, 100), 30, "overlap counts once");
  expect_eq(covered_length({{20, 30}, {10, 50}}, 0, 100), 40, "contained, unsorted");
  expect_eq(covered_length({{10, 20}, {10, 20}}, 0, 100), 10, "identical");
  expect_eq(covered_length({{-5, 10}, {90, 120}}, 0, 100), 20, "clipped to parent");
  expect_eq(covered_length({{10, 20}, {20, 30}}, 0, 100), 20, "touching");

  // parent [0,100]; children [10,30] and [20,40] overlap; grandchild [12,18]
  // lies inside the first child and must not be subtracted from the parent
  // a second time.
  const std::vector<perfbench::Span> spans = {
      span(0, 100, -1), span(10, 30, 0), span(20, 40, 0), span(12, 18, 1),
      span(200, 250, -1)};
  const std::vector<std::int64_t> self = self_times(spans);
  expect_eq(self[0], 70, "parent self");
  expect_eq(self[1], 14, "child with grandchild");
  expect_eq(self[2], 20, "overlapping sibling keeps its own duration");
  expect_eq(self[3], 6, "leaf");
  expect_eq(self[4], 50, "second root");

  // The tracer nests spans by open/close order and totals self time by name.
  perfbench::Tracer tracer(true);
  tracer.set_id(3, 7);
  const int outer = tracer.open("outer", 0);
  const int inner = tracer.open("inner", 5);
  tracer.close(inner);
  tracer.close(outer);
  expect_eq(tracer.spans().size(), 2, "spans recorded");
  expect_eq(tracer.spans()[1].parent, outer, "inner parent");
  expect_eq(static_cast<long long>(tracer.spans()[1].id),
            static_cast<long long>((std::uint64_t{3} << 32) | 7), "span id");
  const auto totals = tracer.totals();
  const std::int64_t outer_dur = tracer.spans()[0].end_ns - tracer.spans()[0].start_ns;
  const std::int64_t inner_dur = tracer.spans()[1].end_ns - tracer.spans()[1].start_ns;
  expect_eq(totals.at("outer").self_ns, outer_dur - inner_dur, "outer self total");
  expect_eq(static_cast<long long>(totals.at("inner").items), 5, "items total");

  perfbench::Tracer off(false);
  expect_eq(off.open("x", 1), -1, "disabled tracer records nothing");
  expect_eq(off.spans().size(), 0, "disabled tracer is empty");

  if (failures == 0) std::printf("span arithmetic: all checks passed\n");
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
