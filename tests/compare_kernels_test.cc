#include "linkage/compare_kernels.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/bit_matrix.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "linkage/comparison.h"
#include "linkage/parallel_linkage.h"
#include "similarity/similarity.h"

namespace pprl {
namespace {

constexpr SimilarityMeasure kAllMeasures[] = {
    SimilarityMeasure::kDice, SimilarityMeasure::kJaccard, SimilarityMeasure::kHamming,
    SimilarityMeasure::kOverlap, SimilarityMeasure::kCosine};

/// Random filters with strongly varying density (so cardinality bounds
/// actually separate pairs), plus deliberate edge rows: all-zero (empty)
/// filters and duplicated rows that score exactly 1.
std::vector<BitVector> RandomFilters(size_t n, size_t num_bits, Rng& rng) {
  std::vector<BitVector> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    BitVector v(num_bits);
    const double density = 0.05 + 0.5 * rng.NextDouble();
    for (size_t b = 0; b < num_bits; ++b) {
      if (rng.NextBool(density)) v.Set(b);
    }
    out.push_back(std::move(v));
  }
  if (n >= 3 && num_bits > 0) {
    out[0].Clear();           // empty filter
    out[n - 1] = out[n / 2];  // exact duplicate pair across the databases
  }
  return out;
}

std::vector<CandidatePair> AllPairs(size_t na, size_t nb) {
  std::vector<CandidatePair> out;
  for (uint32_t i = 0; i < na; ++i) {
    for (uint32_t j = 0; j < nb; ++j) out.push_back({i, j});
  }
  return out;
}

TEST(BitMatrixTest, RoundTripsAndAlignment) {
  Rng rng(7);
  for (const size_t bits : {size_t{0}, size_t{1}, size_t{61}, size_t{127}, size_t{500},
                            size_t{1000}}) {
    const auto rows = RandomFilters(9, bits, rng);
    const BitMatrix m = BitMatrix::FromVectors(rows);
    EXPECT_EQ(m.num_rows(), rows.size());
    EXPECT_EQ(m.num_bits(), bits);
    EXPECT_EQ(m.stride_words() % 8, 0u) << "stride must stay a 64-byte multiple";
    const auto back = m.ToVectors();
    ASSERT_EQ(back.size(), rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(back[i], rows[i]) << "row " << i << " at " << bits << " bits";
      EXPECT_EQ(m.row_count(i), rows[i].Count());
      EXPECT_EQ(reinterpret_cast<uintptr_t>(m.row(i)) % 64, 0u)
          << "row " << i << " must start on a cache line";
    }
  }
}

TEST(BitMatrixTest, CopyIsDeep) {
  Rng rng(11);
  const BitMatrix a = BitMatrix::FromVectors(RandomFilters(4, 127, rng));
  BitMatrix b = a;
  b.mutable_row(0)[0] = ~b.mutable_row(0)[0];
  b.RecomputeCounts();
  EXPECT_NE(a.row(0)[0], b.row(0)[0]);
  EXPECT_EQ(a.ToVectors()[1], b.ToVectors()[1]);
}

TEST(CompareKernelsTest, UpperBoundDominatesEveryScore) {
  Rng rng(13);
  for (const size_t bits : {size_t{61}, size_t{127}, size_t{500}}) {
    const auto fa = RandomFilters(24, bits, rng);
    const auto fb = RandomFilters(24, bits, rng);
    for (const SimilarityMeasure m : kAllMeasures) {
      const auto reference = MeasureFunction(m);
      for (const auto& a : fa) {
        for (const auto& b : fb) {
          const double score = reference(a, b);
          const double bound = ScoreUpperBound(m, a.Count(), b.Count(), bits);
          EXPECT_GE(bound, score)
              << SimilarityMeasureName(m) << " bound must dominate at " << bits
              << " bits (|a|=" << a.Count() << ", |b|=" << b.Count() << ")";
          const double exact =
              ScoreFromIntersection(m, a.Count(), b.Count(), a.AndCount(b), bits);
          EXPECT_EQ(exact, score)
              << SimilarityMeasureName(m) << " intersection formula must be bitwise";
        }
      }
    }
  }
}

/// The heart of the PR's contract: for every measure, odd/word-straddling
/// bit lengths, empty filters, and a sweep of thresholds, the kernel path
/// must reproduce the std::function reference path exactly — same scores
/// to the bit, same kept pairs, same output order — while counting every
/// candidate and pruning only pairs the bound proves hopeless.
TEST(CompareKernelsTest, KernelMatchesReferenceBitwise) {
  Rng rng(17);
  for (const size_t bits : {size_t{61}, size_t{127}, size_t{500}}) {
    const auto fa = RandomFilters(40, bits, rng);
    const auto fb = RandomFilters(40, bits, rng);
    const auto candidates = AllPairs(fa.size(), fb.size());
    for (const SimilarityMeasure m : kAllMeasures) {
      const ComparisonEngine reference(MeasureFunction(m));
      const ComparisonEngine kernel(m);
      for (const double min_score : {0.0, 0.5, 0.7, 0.9}) {
        const auto expected = reference.Compare(fa, fb, candidates, min_score);
        const auto actual = kernel.Compare(fa, fb, candidates, min_score);
        ASSERT_EQ(expected.size(), actual.size())
            << SimilarityMeasureName(m) << " bits=" << bits << " min=" << min_score;
        for (size_t i = 0; i < expected.size(); ++i) {
          EXPECT_EQ(expected[i], actual[i])
              << SimilarityMeasureName(m) << " bits=" << bits << " min=" << min_score
              << " pair " << i << " (scores and order must be identical)";
        }
        EXPECT_EQ(kernel.last_comparison_count(), candidates.size());
        EXPECT_EQ(reference.last_pruned_count(), 0u);
        EXPECT_LE(kernel.last_pruned_count(), candidates.size());
        if (min_score == 0.0) {
          EXPECT_EQ(kernel.last_pruned_count(), 0u)
              << "nothing can fall below a zero threshold";
        }
      }
    }
  }
}

TEST(CompareKernelsTest, PruningFiresAtHighThresholds) {
  Rng rng(19);
  const auto fa = RandomFilters(60, 500, rng);
  const auto fb = RandomFilters(60, 500, rng);
  const auto candidates = AllPairs(fa.size(), fb.size());
  const ComparisonEngine kernel(SimilarityMeasure::kDice);
  const auto kept = kernel.Compare(fa, fb, candidates, 0.7);
  EXPECT_GT(kernel.last_pruned_count(), 0u)
      << "density spread from 5% to 55% must let the cardinality bound prune";
  EXPECT_EQ(kernel.last_comparison_count(), candidates.size());
  // Pruned pairs are exactly the ones the reference would have dropped.
  const ComparisonEngine reference(MeasureFunction(SimilarityMeasure::kDice));
  const auto expected = reference.Compare(fa, fb, candidates, 0.7);
  ASSERT_EQ(expected.size(), kept.size());
  for (size_t i = 0; i < expected.size(); ++i) EXPECT_EQ(expected[i], kept[i]);
}

/// Streams the full cross product of `ma` x `mb` through the batch
/// compare path (run shards on a work-stealing scheduler).
StreamCompareResult StreamAllPairs(SimilarityMeasure measure, const BitMatrix& ma,
                                   const BitMatrix& mb, double min_score,
                                   const ParallelLinkageOptions& options) {
  const size_t shard_size = ResolveParallelTuning(options, ma.num_bits()).shard_size;
  return StreamCompareShards(measure, ma, mb, min_score, options,
                             [&](const CandidateShardFn& emit) {
                               StreamFullPairRuns(ma.num_rows(), mb.num_rows(),
                                                  shard_size, emit);
                             });
}

/// Thresholded runs through every measure's kernel (for Dice: the
/// division-free band tests and dense-run vectorization) on the streaming
/// compare path: scores, kept pairs, order, and the pruned/comparison
/// accounting must all be identical to the sequential kernel at every
/// thread count, with several shards per call.
TEST(CompareKernelsTest, StreamedAccountingMatchesSequentialKernel) {
  Rng rng(31);
  for (const size_t bits : {size_t{127}, size_t{500}}) {
    const auto fa = RandomFilters(64, bits, rng);
    const auto fb = RandomFilters(64, bits, rng);
    const auto candidates = AllPairs(fa.size(), fb.size());
    const BitMatrix ma = BitMatrix::FromVectors(fa);
    const BitMatrix mb = BitMatrix::FromVectors(fb);
    for (const SimilarityMeasure m : kAllMeasures) {
      const ComparisonEngine kernel(m);
      for (const double min_score : {0.5, 0.7, 0.85, 0.95}) {
        const auto sequential = kernel.CompareMatrices(ma, mb, candidates, min_score);
        const size_t sequential_pruned = kernel.last_pruned_count();
        for (const size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
          ParallelLinkageOptions options;
          options.num_threads = threads;
          options.shard_size = 1024;
          const StreamCompareResult streamed =
              StreamAllPairs(m, ma, mb, min_score, options);
          const std::string label = std::string(SimilarityMeasureName(m)) +
                                    " bits=" + std::to_string(bits) +
                                    " min=" + std::to_string(min_score) +
                                    " threads=" + std::to_string(threads);
          ASSERT_EQ(sequential.size(), streamed.hits.size()) << label;
          for (size_t i = 0; i < sequential.size(); ++i) {
            EXPECT_EQ(sequential[i], streamed.hits[i]) << label;
          }
          EXPECT_EQ(streamed.comparisons, candidates.size()) << label;
          EXPECT_EQ(streamed.pruned, sequential_pruned) << label;
        }
      }
    }
  }
}

/// Several callers streaming through one shared scheduler at once — the
/// shape the daemon runs, one caller per session. Every caller must get
/// its own correct result and accounting.
TEST(CompareKernelsTest, ConcurrentCallersShareScheduler) {
  Rng rng(37);
  const auto fa = RandomFilters(48, 500, rng);
  const auto fb = RandomFilters(48, 500, rng);
  const auto candidates = AllPairs(fa.size(), fb.size());
  const BitMatrix ma = BitMatrix::FromVectors(fa);
  const BitMatrix mb = BitMatrix::FromVectors(fb);
  const ComparisonEngine kernel(SimilarityMeasure::kDice);
  const auto expected = kernel.CompareMatrices(ma, mb, candidates, 0.7);
  const size_t expected_pruned = kernel.last_pruned_count();

  WorkStealingScheduler scheduler(4);
  ParallelLinkageOptions options;
  options.scheduler = &scheduler;
  options.shard_size = 1024;
  constexpr int kCallers = 4;
  std::vector<StreamCompareResult> results(kCallers);
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      results[t] = StreamAllPairs(SimilarityMeasure::kDice, ma, mb, 0.7, options);
    });
  }
  for (auto& c : callers) c.join();
  for (int t = 0; t < kCallers; ++t) {
    ASSERT_EQ(expected.size(), results[t].hits.size()) << "caller " << t;
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(expected[i], results[t].hits[i]) << "caller " << t << " pair " << i;
    }
    EXPECT_EQ(results[t].comparisons, candidates.size()) << "caller " << t;
    EXPECT_EQ(results[t].pruned, expected_pruned) << "caller " << t;
  }
}

TEST(CompareKernelsTest, ZeroLengthFiltersCompareDegenerate) {
  const std::vector<BitVector> fa(3), fb(3);  // zero-bit filters
  const auto candidates = AllPairs(3, 3);
  for (const SimilarityMeasure m : kAllMeasures) {
    const ComparisonEngine reference(MeasureFunction(m));
    const ComparisonEngine kernel(m);
    const auto expected = reference.Compare(fa, fb, candidates, 0.0);
    const auto actual = kernel.Compare(fa, fb, candidates, 0.0);
    ASSERT_EQ(expected.size(), actual.size()) << SimilarityMeasureName(m);
    for (size_t i = 0; i < expected.size(); ++i) EXPECT_EQ(expected[i], actual[i]);
  }
}

TEST(CompareFieldwiseKernelTest, MatchesFunctionOverload) {
  Rng rng(29);
  const std::vector<std::vector<BitVector>> fa = {RandomFilters(12, 61, rng),
                                                  RandomFilters(12, 500, rng)};
  const std::vector<std::vector<BitVector>> fb = {RandomFilters(12, 61, rng),
                                                  RandomFilters(12, 500, rng)};
  const auto candidates = AllPairs(12, 12);
  for (const SimilarityMeasure m : kAllMeasures) {
    const auto expected = CompareFieldwise(fa, fb, candidates, MeasureFunction(m));
    const auto actual = CompareFieldwise(fa, fb, candidates, m);
    ASSERT_EQ(expected.size(), actual.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(expected[i].a, actual[i].a);
      EXPECT_EQ(expected[i].b, actual[i].b);
      ASSERT_EQ(expected[i].field_scores.size(), actual[i].field_scores.size());
      for (size_t f = 0; f < expected[i].field_scores.size(); ++f) {
        EXPECT_EQ(expected[i].field_scores[f], actual[i].field_scores[f])
            << SimilarityMeasureName(m) << " pair " << i << " field " << f;
      }
    }
  }
}

}  // namespace
}  // namespace pprl
