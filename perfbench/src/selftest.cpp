/// Self-tests for the benchmark's own arithmetic (report.h). run.py runs
/// this binary before every benchmark run and refuses to report numbers
/// when it fails.
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <vector>

#include "report.h"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "perfbench selftest FAILED: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

template <typename F>
bool throws(F f) {
  try {
    f();
  } catch (const std::invalid_argument&) {
    return true;
  }
  return false;
}

void test_percentile_rule() {
  using namespace perfbench;
  // Nearest rank: the p99 of 1000 samples is the 990th, leaving exactly
  // ten beyond it, so 1000 is the smallest set that may report a p99.
  expect(nearest_rank(1000, 99.0) == 990, "p99 rank of 1000");
  expect(samples_beyond(1000, 99.0) == 10, "10 beyond p99 of 1000");
  expect(tail_supported(1000, 99.0), "p99 reportable at n=1000");
  expect(!tail_supported(999, 99.0), "p99 not reportable at n=999");
  expect(tail_supported(100, 90.0) && !tail_supported(99, 90.0),
         "p90 needs 100 samples");
  expect(tail_supported(10000, 99.9) && !tail_supported(9999, 99.9),
         "p99.9 needs 10000 samples");
  expect(tail_supported(1, 50.0), "median always reportable");
  expect(!tail_supported(0, 50.0), "nothing reportable from no samples");

  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) {
    v.push_back(static_cast<double>(i));
  }
  expect(percentile(v, 50.0) == 500.0, "median of 1..1000");
  expect(percentile(v, 99.0) == 990.0, "p99 of 1..1000");
  expect(percentile(v, 100.0) == 1000.0, "p100 is the max");
  std::vector<double> empty;
  expect(throws([&] { percentile(empty, 50.0); }), "empty set throws");
}

void test_self_time() {
  using namespace perfbench;
  // Root [0,10] with overlapping children [1,4] and [3,6] (union 5) and a
  // nested grandchild [2,3] under the first child.
  std::vector<Span> spans(4);
  spans[0] = Span{0, -1, 0, 0.0, 10.0};
  spans[1] = Span{1, 0, 1, 1.0, 4.0};
  spans[2] = Span{1, 0, 2, 3.0, 6.0};
  spans[3] = Span{2, 1, 1, 2.0, 3.0};
  std::vector<double> self = self_times(spans);
  expect(near(self[0], 5.0), "root minus union of overlapping children");
  expect(near(self[1], 2.0), "child minus nested grandchild");
  expect(near(self[2], 3.0), "leaf keeps its duration");
  expect(near(self[3], 1.0), "grandchild leaf");

  // A child sticking out of its parent only covers the overlap; disjoint
  // and identical children are each counted once.
  std::vector<Span> clipped(4);
  clipped[0] = Span{0, -1, 0, 0.0, 4.0};
  clipped[1] = Span{1, 0, 0, 3.0, 9.0};
  clipped[2] = Span{1, 0, 0, 0.5, 1.0};
  clipped[3] = Span{1, 0, 0, 0.5, 1.0};
  self = self_times(clipped);
  expect(near(self[0], 2.5), "clip to parent, union duplicates");

  std::vector<Span> bad(1);
  bad[0] = Span{0, 3, 0, 0.0, 1.0};
  expect(throws([&] { self_times(bad); }), "dangling parent throws");
}

void test_error_rate() {
  using namespace perfbench;
  expect(error_rate(0, 40) == 0.0, "no failures");
  expect(near(error_rate(3, 40), 0.075), "failed over attempted");
  expect(error_rate(40, 40) == 1.0, "all failed");
  expect(throws([] { error_rate(0, 0); }), "nothing attempted throws");
  expect(throws([] { error_rate(5, 4); }), "more failed than attempted");
}

void test_format() {
  using namespace perfbench;
  expect(format_number(0.1) == "0.1", "shortest round trip");
  expect(format_number(12345.678901234567) == "12345.678901234567",
         "all digits kept");
  expect(throws([] { format_number(std::nan("")); }), "NaN refused");
}

}  // namespace

int main() {
  test_percentile_rule();
  test_self_time();
  test_error_rate();
  test_format();
  if (failures != 0) {
    return 1;
  }
  std::fprintf(stderr, "perfbench selftest: ok\n");
  return 0;
}
