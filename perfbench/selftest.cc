// Self-tests of the benchmark's own machinery: the percentile rule,
// medians and quartiles, span self time, and seed plumbing. run.py runs
// them before every workload; a failure stops the run.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "inputs.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
  }
}

bool Near(double x, double y) { return std::fabs(x - y) < 1e-9; }

std::vector<double> Range(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

void PercentileRule() {
  Expect(SamplesForTail(0.99) == 1000, "a p99 needs 1000 samples");
  Expect(SamplesForTail(0.9) == 100, "a p90 needs 100 samples");
  Expect(!TailPercentile(Range(999), 0.99), "p99 of 999 samples is refused");
  const auto p99 = TailPercentile(Range(1000), 0.99);
  Expect(p99 && Near(*p99, 990), "p99 of 1..1000 is 990, with 10 samples beyond");
  const auto p90 = TailPercentile(Range(100), 0.9);
  Expect(p90 && Near(*p90, 90), "p90 of 1..100 is 90");
  Expect(!TailPercentile({}, 0.5), "no percentile of an empty sample");
}

void MedianAndQuartiles() {
  Expect(Near(Median({3, 1, 2}), 2), "median of an odd sample");
  Expect(Near(Median({4, 1, 3, 2}), 2.5), "median of an even sample");
  // Reference values from Python's statistics.quantiles(values, n=4).
  Quartiles q = ComputeQuartiles(Range(10));
  Expect(Near(q.q1, 2.75) && Near(q.q2, 5.5) && Near(q.q3, 8.25), "quartiles of 1..10");
  q = ComputeQuartiles({5, 4, 3, 2, 1});
  Expect(Near(q.q1, 1.5) && Near(q.q2, 3.0) && Near(q.q3, 4.5), "quartiles of 1..5");
  q = ComputeQuartiles({5, 1});
  Expect(Near(q.q1, 0) && Near(q.q2, 3) && Near(q.q3, 6), "quartiles of two values");
  q = ComputeQuartiles({0.3, 0.1, 0.7, 0.2, 0.9, 0.4});
  Expect(Near(q.q1, 0.175) && Near(q.q2, 0.35) && Near(q.q3, 0.75),
         "quartiles of six values");
}

Span MakeSpan(const char* name, int64_t start, int64_t end, int32_t parent) {
  Span s;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

void SpanSelfTime() {
  // root [0,100] with children [10,30] and [20,50] (overlapping) and
  // [60,70]; the first child has a grandchild [15,25].
  const std::vector<Span> spans = {
      MakeSpan("root", 0, 100, -1), MakeSpan("a", 10, 30, 0), MakeSpan("b", 20, 50, 0),
      MakeSpan("c", 60, 70, 0),     MakeSpan("a.x", 15, 25, 1),
  };
  const std::vector<double> self = SelfSeconds(spans);
  Expect(Near(self[0], 50e-9), "root self time excludes the union of its children");
  Expect(Near(self[1], 10e-9), "a child's self time excludes its own child");
  Expect(Near(self[2], 30e-9) && Near(self[3], 10e-9) && Near(self[4], 10e-9),
         "leaf self time is the whole duration");
  Expect(Near(SelfSecondsByName(spans)["root"], 50e-9), "self time by name");
  const SpanSummary summary = Summarize(spans);
  Expect(Near(summary.root_seconds, 100e-9) && Near(summary.attributed_share, 0.5),
         "attributed share is what the root's children cover");
  Expect(summary.layer_self.size() == 3 && Near(summary.layer_self.at("a"), 20e-9) &&
             summary.layer_self.count("root") == 0,
         "layer self time sums non-root spans by name prefix");

  Tracer tracer;
  {
    ScopedSpan outer(&tracer, "outer", 7);
    { ScopedSpan inner(&tracer, "inner", 7); }
    { ScopedSpan second(&tracer, "inner", 7); }
  }
  { ScopedSpan next(&tracer, "next", 8); }
  { ScopedSpan off(nullptr, "untraced"); }
  const std::vector<Span>& recorded = tracer.spans();
  Expect(recorded.size() == 4, "one span per scope, none without a tracer");
  Expect(recorded[0].parent == -1 && recorded[1].parent == 0 && recorded[2].parent == 0 &&
             recorded[3].parent == -1,
         "spans nest under the innermost open span");
  Expect(recorded[1].request == 7 && recorded[3].request == 8,
         "spans carry their request id");
  Expect(Durations(recorded, "inner").size() == 2, "durations by name");
  const std::vector<double> recorded_self = SelfSeconds(recorded);
  Expect(recorded_self[0] >= 0 &&
             recorded_self[0] <= recorded[0].seconds() - recorded[1].seconds() + 1e-12,
         "recorded self time");
}

void SeedPlumbing() {
  const uint64_t first = ScenarioDigest(MakeScenario(300, 7));
  Expect(first == ScenarioDigest(MakeScenario(300, 7)),
         "the same seed gives the same input");
  Expect(first != ScenarioDigest(MakeScenario(300, 8)),
         "another seed gives another input");
  const Scenario scenario = MakeScenario(300, 7);
  const pprl::EncodedShard serial = EncodeOwner(scenario.a, 1);
  const pprl::EncodedShard parallel = EncodeOwner(scenario.a, 3);
  bool same = serial.size() == 300 && serial.ids == parallel.ids &&
              serial.bits.num_rows() == parallel.bits.num_rows();
  for (size_t r = 0; same && r < serial.size(); ++r) {
    for (size_t w = 0; w < serial.bits.words_per_row(); ++w) {
      same = same && serial.bits.row(r)[w] == parallel.bits.row(r)[w];
    }
  }
  Expect(same, "owner encoding does not depend on the thread count");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::PercentileRule();
  perfbench::MedianAndQuartiles();
  perfbench::SpanSelfTime();
  perfbench::SeedPlumbing();
  if (perfbench::failures != 0) {
    std::fprintf(stderr, "perfbench selftest: %d failure(s)\n", perfbench::failures);
    return 1;
  }
  std::fprintf(stderr, "perfbench selftest: all checks passed\n");
  return 0;
}
