// Self-test of the benchmark's own arithmetic: the percentile rule, the
// choice of the fastest slices, span self time with overlapping children, the
// Zipf catalogue draw and the trace analysis. Exits non-zero on the first
// failed check.
//
//   python3 perfbench/run.py --selftest
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"

namespace {

int failures = 0;

void check(bool condition, const char* what) {
  if (!condition) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> values;
  for (std::size_t i = 1; i <= n; ++i) values.push_back(static_cast<double>(i));
  return values;
}

void percentile_rule() {
  // p50 needs 10 samples beyond the median rank: 20 samples, not 19.
  check(!perfbench::percentile(ramp(19), 0.5).has_value(), "p50 of 19 samples is withheld");
  check(perfbench::percentile(ramp(20), 0.5) == 10.0, "p50 of 1..20 is 10");
  // p99 needs 1000 samples; p90 needs 100.
  check(!perfbench::percentile(ramp(999), 0.99).has_value(), "p99 of 999 samples is withheld");
  check(perfbench::percentile(ramp(1000), 0.99) == 990.0, "p99 of 1..1000 is 990");
  check(!perfbench::percentile(ramp(99), 0.9).has_value(), "p90 of 99 samples is withheld");
  check(perfbench::percentile(ramp(100), 0.9) == 90.0, "p90 of 1..100 is 90");
  check(!perfbench::percentile({}, 0.5).has_value(), "empty sample has no percentile");
  std::vector<double> shuffled = {5, 3, 9, 1, 7, 2, 8, 4, 6, 10,
                                  15, 13, 19, 11, 17, 12, 18, 14, 16, 20};
  check(perfbench::percentile(shuffled, 0.5) == 10.0, "percentile ignores input order");
}

void fastest_share_rule() {
  using perfbench::fastest_share;
  const std::vector<double> rates = {5, 9, 1, 7, 3, 8};
  check(fastest_share(rates, 3) == std::vector<std::size_t>{1, 5}, "fastest third of 6 is 2");
  check(fastest_share({5, 9, 1, 7, 3, 8, 2}, 3) == std::vector<std::size_t>{1, 5, 3},
        "a share rounds up: 7 slices keep 3");
  check(fastest_share({4}, 3) == std::vector<std::size_t>{0}, "one slice is kept");
  check(fastest_share({2, 2, 2}, 2) == std::vector<std::size_t>{0, 1}, "ties keep slice order");
  check(fastest_share({}, 3).empty(), "no slices, none kept");
}

void self_time_overlap() {
  using perfbench::Interval;
  using perfbench::self_time;
  check(self_time({0, 100}, {}) == 100, "no children: whole span");
  check(self_time({0, 100}, {{10, 30}, {50, 60}}) == 70, "disjoint children subtract");
  // Overlapping children cover [10, 50): 40, counted once.
  check(self_time({0, 100}, {{10, 40}, {20, 50}}) == 60, "overlap counted once");
  check(self_time({0, 100}, {{20, 50}, {10, 40}}) == 60, "child order does not matter");
  check(self_time({0, 100}, {{10, 90}, {20, 30}}) == 20, "nested child adds nothing");
  // Children sticking out of the span count only inside it.
  check(self_time({0, 100}, {{-50, 10}, {90, 150}}) == 80, "children clipped to the span");
  check(self_time({0, 100}, {{-10, 200}}) == 0, "fully covered span");
}

void zipf_draw() {
  const perfbench::ZipfDraw zipf(48, 1.0);
  const auto draws = [&](std::uint64_t seed) {
    cnn2fpga::util::Rng rng(seed);
    std::vector<std::size_t> out;
    for (int i = 0; i < 2000; ++i) out.push_back(zipf(rng));
    return out;
  };
  const auto a = draws(7), b = draws(7), c = draws(8);
  check(a == b, "same seed gives the same catalogue draw");
  check(a != c, "another seed gives another catalogue draw");
  std::vector<std::size_t> counts(48);
  for (std::size_t r : a) {
    check(r < 48, "draw within the catalogue");
    if (r < 48) ++counts[r];
  }
  check(counts[0] > counts[1] && counts[1] > counts[11] && counts[11] > counts[47],
        "lower ranks are drawn more often");
}

void trace_analysis() {
  using perfbench::Span;
  using perfbench::SpanName;
  // One in-process predict: client [0, 1000us], handler [200, 900], the
  // response reports queue 100us and exec 300us.
  Span client;
  client.name = SpanName::kClientPredict;
  client.id = client.rid = 42;
  client.start_ns = 0;
  client.end_ns = 1000000;
  client.queue_us = 100;
  client.exec_us = 300;
  Span handler;
  handler.name = SpanName::kHandlerPredict;
  handler.rid = handler.parent = 42;
  handler.start_ns = 200000;
  handler.end_ns = 900000;
  auto result = perfbench::analyze({client, handler});
  check(result.requests.size() == 1 && result.inconsistent == 0, "nested request is consistent");
  if (result.requests.size() == 1) {
    const auto& r = result.requests[0];
    check(r.transport_us == 300.0, "transport = client - handler");
    check(r.handler_self_us == 300.0, "handler self = handler - queue - exec");
    check(r.transport_us + r.handler_self_us + r.queue_us + r.exec_us == r.client_us,
          "layer self times sum to the client span");
  }
  // A handler reporting more queue+exec than it lasted cannot be nested.
  client.exec_us = 800;
  result = perfbench::analyze({client, handler});
  check(result.inconsistent == 1, "impossible durations are flagged");
  // A client span without its server span is incomplete.
  result = perfbench::analyze({client});
  check(result.incomplete == 1 && result.requests.empty(), "missing server span is flagged");
}

}  // namespace

int main() {
  percentile_rule();
  fastest_share_rule();
  self_time_overlap();
  zipf_draw();
  trace_analysis();
  if (failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return EXIT_FAILURE;
  }
  std::printf("perfbench selftest: all checks passed\n");
  return EXIT_SUCCESS;
}
