#include "linkage/comparison.h"

#include <algorithm>
#include <cassert>

#include "obs/metrics.h"

namespace pprl {

namespace {

/// Comparison counters: one relaxed atomic add per Compare*() call (not
/// per pair), so instrumentation cost is invisible next to the O(pairs)
/// kernel work. The `path` label is the kernel-dispatch breakdown.
struct CompareMetrics {
  obs::Counter& pairs = obs::GlobalMetrics().GetCounter(
      "pprl_compare_pairs_total",
      "Candidate pairs evaluated by ComparisonEngine (word loop or bound)");
  obs::Counter& pruned = obs::GlobalMetrics().GetCounter(
      "pprl_compare_pairs_pruned_total",
      "Pairs the cardinality bound rejected without running the word loop");
  obs::Counter& scalar_calls = obs::GlobalMetrics().GetCounter(
      "pprl_compare_calls_total", "Compare*() dispatches by execution path",
      {{"path", "scalar"}});
  obs::Counter& kernel_calls = obs::GlobalMetrics().GetCounter(
      "pprl_compare_calls_total", "Compare*() dispatches by execution path",
      {{"path", "kernel"}});
  obs::Counter& kernel_parallel_calls = obs::GlobalMetrics().GetCounter(
      "pprl_compare_calls_total", "Compare*() dispatches by execution path",
      {{"path", "kernel-parallel"}});
  obs::Counter& fieldwise_calls = obs::GlobalMetrics().GetCounter(
      "pprl_compare_calls_total", "Compare*() dispatches by execution path",
      {{"path", "fieldwise"}});
};

CompareMetrics& Metrics() {
  static CompareMetrics* m = new CompareMetrics();
  return *m;
}

/// Rows per cache tile. Pairs are sorted by (a-tile, b-tile) so the kernel
/// keeps revisiting the same few hundred rows of each matrix while they
/// are hot: 256 rows of a 1000-bit filter are ~32 KiB per side, which sits
/// in L2 with room to spare.
constexpr uint32_t kTileRows = 256;

/// Tiling trades two O(n log n) sorts over the pair list for row reuse
/// while rows are hot, so it only pays once random row access actually
/// misses cache. Below this combined matrix footprint (comfortably inside
/// a desktop LLC) the engine scores pairs in candidate order instead —
/// hits then come out pre-sorted by slot and the sorts vanish.
constexpr size_t kTileBytesThreshold = 16u << 20;

bool WorthTiling(const BitMatrix& a, const BitMatrix& b) {
  const size_t bytes = (a.num_rows() + b.num_rows()) * a.stride_words() * 8;
  return bytes > kTileBytesThreshold;
}

/// Tags every candidate with its output slot and sorts into tile order.
/// Ties break on slot so the ordering is deterministic.
std::vector<KernelPair> TiledPairs(const std::vector<CandidatePair>& candidates) {
  std::vector<KernelPair> pairs(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    pairs[i] = {candidates[i].a, candidates[i].b, static_cast<uint32_t>(i)};
  }
  std::sort(pairs.begin(), pairs.end(), [](const KernelPair& x, const KernelPair& y) {
    const uint32_t xa = x.a / kTileRows;
    const uint32_t ya = y.a / kTileRows;
    if (xa != ya) return xa < ya;
    const uint32_t xb = x.b / kTileRows;
    const uint32_t yb = y.b / kTileRows;
    if (xb != yb) return xb < yb;
    return x.slot < y.slot;
  });
  return pairs;
}

/// Restores candidate order: hits arrive in kernel execution order, each
/// slot at most once, so sorting by slot recovers the caller's order.
std::vector<ScoredPair> EmitInCandidateOrder(std::vector<SlottedScore> hits,
                                             const std::vector<CandidatePair>& candidates) {
  std::sort(hits.begin(), hits.end(),
            [](const SlottedScore& x, const SlottedScore& y) { return x.slot < y.slot; });
  std::vector<ScoredPair> out;
  out.reserve(hits.size());
  for (const SlottedScore& hit : hits) {
    const CandidatePair& pair = candidates[hit.slot];
    out.push_back({pair.a, pair.b, hit.score});
  }
  return out;
}

}  // namespace

ComparisonEngine::ComparisonEngine(SimilarityMeasure measure) : measure_(measure) {}

ComparisonEngine::ComparisonEngine(PairSimilarityFunction similarity)
    : similarity_(std::move(similarity)) {}

std::vector<ScoredPair> ComparisonEngine::Compare(
    const std::vector<BitVector>& a_filters, const std::vector<BitVector>& b_filters,
    const std::vector<CandidatePair>& candidates, double min_score) const {
  if (measure_.has_value()) {
    return CompareMatrices(BitMatrix::FromVectors(a_filters),
                           BitMatrix::FromVectors(b_filters), candidates, min_score);
  }
  std::vector<ScoredPair> out;
  out.reserve(candidates.size());
  for (const CandidatePair& pair : candidates) {
    const double score = similarity_(a_filters[pair.a], b_filters[pair.b]);
    if (score >= min_score) out.push_back({pair.a, pair.b, score});
  }
  last_comparisons_ = candidates.size();
  last_pruned_ = 0;
  Metrics().scalar_calls.Increment();
  Metrics().pairs.Increment(candidates.size());
  return out;
}

std::vector<ScoredPair> ComparisonEngine::CompareMatrices(
    const BitMatrix& a_matrix, const BitMatrix& b_matrix,
    const std::vector<CandidatePair>& candidates, double min_score) const {
  assert(measure_.has_value());
  CompareKernelStats stats;
  last_comparisons_ = candidates.size();
  Metrics().kernel_calls.Increment();
  Metrics().pairs.Increment(candidates.size());
  if (WorthTiling(a_matrix, b_matrix)) {
    const std::vector<KernelPair> pairs = TiledPairs(candidates);
    std::vector<SlottedScore> hits;
    CompareKernel(*measure_, a_matrix, b_matrix, pairs.data(), pairs.size(), min_score,
                  hits, stats);
    last_pruned_ = stats.pruned;
    Metrics().pruned.Increment(stats.pruned);
    return EmitInCandidateOrder(std::move(hits), candidates);
  }
  std::vector<ScoredPair> out;
  out.reserve(candidates.size());
  CompareKernel(*measure_, a_matrix, b_matrix, candidates.data(), candidates.size(),
                min_score, out, stats);
  last_pruned_ = stats.pruned;
  Metrics().pruned.Increment(stats.pruned);
  return out;
}

void RecordStreamCompare(size_t comparisons, size_t pruned) {
  Metrics().kernel_parallel_calls.Increment();
  Metrics().pairs.Increment(comparisons);
  Metrics().pruned.Increment(pruned);
}

std::vector<FieldwiseScoredPair> CompareFieldwise(
    const std::vector<std::vector<BitVector>>& a_field_filters,
    const std::vector<std::vector<BitVector>>& b_field_filters,
    const std::vector<CandidatePair>& candidates,
    const PairSimilarityFunction& similarity) {
  std::vector<FieldwiseScoredPair> out;
  out.reserve(candidates.size());
  const size_t num_fields = a_field_filters.size();
  for (const CandidatePair& pair : candidates) {
    FieldwiseScoredPair fsp;
    fsp.a = pair.a;
    fsp.b = pair.b;
    fsp.field_scores.reserve(num_fields);
    for (size_t f = 0; f < num_fields; ++f) {
      fsp.field_scores.push_back(
          similarity(a_field_filters[f][pair.a], b_field_filters[f][pair.b]));
    }
    out.push_back(std::move(fsp));
  }
  return out;
}

std::vector<FieldwiseScoredPair> CompareFieldwise(
    const std::vector<std::vector<BitVector>>& a_field_filters,
    const std::vector<std::vector<BitVector>>& b_field_filters,
    const std::vector<CandidatePair>& candidates, SimilarityMeasure measure) {
  std::vector<FieldwiseScoredPair> out(candidates.size());
  const size_t num_fields = a_field_filters.size();
  Metrics().fieldwise_calls.Increment();
  Metrics().pairs.Increment(candidates.size() * num_fields);
  for (size_t i = 0; i < candidates.size(); ++i) {
    out[i].a = candidates[i].a;
    out[i].b = candidates[i].b;
    out[i].field_scores.reserve(num_fields);
  }
  std::vector<SlottedScore> hits;
  hits.reserve(candidates.size());
  for (size_t f = 0; f < num_fields; ++f) {
    const BitMatrix ma = BitMatrix::FromVectors(a_field_filters[f]);
    const BitMatrix mb = BitMatrix::FromVectors(b_field_filters[f]);
    hits.clear();
    CompareKernelStats stats;
    // min_score 0 keeps every pair (all measures map into [0, 1]), so each
    // slot receives exactly one score per field, appended in field order.
    CompareKernel(measure, ma, mb, candidates.data(), candidates.size(),
                  /*slot_base=*/0, 0.0, hits, stats);
    for (const SlottedScore& hit : hits) out[hit.slot].field_scores.push_back(hit.score);
  }
  return out;
}

}  // namespace pprl
