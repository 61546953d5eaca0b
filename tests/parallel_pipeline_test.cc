// Determinism of the batch compare path: the same datasets linked at 1, 2,
// 4 and 8 worker threads must produce byte-identical matches, edges and
// clusters — identical to a reference that materializes the candidate
// pairs (CandidatePairs / FullPairs), scores them with
// ComparisonEngine::Compare and classifies them with SelectMatches /
// GreedyOneToOne. Shard boundaries, tile geometry, steal order and merge
// timing may vary freely underneath — none of it may reach the output.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "blocking/blocking.h"
#include "blocking/lsh_blocking.h"
#include "common/bit_matrix.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "datagen/generator.h"
#include "linkage/classifier.h"
#include "linkage/clustering.h"
#include "linkage/comparison.h"
#include "linkage/matching.h"
#include "linkage/parallel_linkage.h"
#include "obs/metrics.h"
#include "pipeline/party.h"
#include "pipeline/pipeline.h"

namespace pprl {
namespace {

std::pair<Database, Database> OverlappingDatabases(size_t records_each) {
  DataGenerator gen(GeneratorConfig{});
  LinkageScenarioConfig scenario;
  scenario.records_per_database = records_each;
  scenario.overlap = 0.5;
  scenario.corruption.mean_corruptions = 1.0;
  auto dbs = gen.GenerateScenario(scenario);
  EXPECT_TRUE(dbs.ok());
  return {std::move((*dbs)[0]), std::move((*dbs)[1])};
}

/// PprlPipeline::Link's output for an unhardened two-party-LU config with
/// Hamming-LSH or no blocking, rebuilt from the materializing functions.
LinkageOutput MaterializedReference(const PipelineConfig& config, const Database& a,
                                    const Database& b) {
  const ClkEncoder encoder(config.bloom, PprlPipeline::DefaultFieldConfigs());
  const std::vector<BitVector> fa = encoder.EncodeDatabase(a).value();
  const std::vector<BitVector> fb = encoder.EncodeDatabase(b).value();
  std::vector<CandidatePair> candidates;
  if (config.blocking == BlockingScheme::kNone) {
    candidates = FullPairs(fa.size(), fb.size());
  } else {
    Rng lsh_rng(config.seed);
    const HammingLshBlocker blocker(fa[0].size(), config.lsh_tables,
                                    config.lsh_bits_per_key, lsh_rng);
    candidates = HammingLshBlocker::CandidatePairs(blocker.BuildIndex(fa),
                                                   blocker.BuildIndex(fb));
  }
  const ComparisonEngine engine(SimilarityMeasure::kDice);
  const auto scored = engine.Compare(fa, fb, candidates, config.match_threshold);
  LinkageOutput out;
  out.candidate_pairs = candidates.size();
  out.comparisons = engine.last_comparison_count();
  out.pruned_comparisons = engine.last_pruned_count();
  const ThresholdClassifier classifier(config.match_threshold, config.match_threshold);
  out.matches = classifier.SelectMatches(scored);
  if (config.one_to_one) out.matches = GreedyOneToOne(std::move(out.matches));
  return out;
}

void ExpectSameOutput(const LinkageOutput& expected, const LinkageOutput& actual,
                      size_t threads) {
  ASSERT_EQ(expected.matches.size(), actual.matches.size()) << threads << " threads";
  for (size_t i = 0; i < expected.matches.size(); ++i) {
    EXPECT_EQ(expected.matches[i], actual.matches[i])
        << threads << " threads, match " << i;
  }
  EXPECT_EQ(expected.candidate_pairs, actual.candidate_pairs) << threads;
  EXPECT_EQ(expected.comparisons, actual.comparisons) << threads;
  EXPECT_EQ(expected.pruned_comparisons, actual.pruned_comparisons) << threads;
}

TEST(ParallelPipelineTest, MatchesIdenticalAtEveryThreadCount) {
  const auto [a, b] = OverlappingDatabases(200);
  PipelineConfig config;
  config.bloom.num_bits = 500;
  config.match_threshold = 0.8;
  const LinkageOutput reference = MaterializedReference(config, a, b);
  EXPECT_FALSE(reference.matches.empty());
  for (const size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    PipelineConfig parallel_config = config;
    parallel_config.num_threads = threads;
    const auto linked = PprlPipeline(parallel_config).Link(a, b);
    ASSERT_TRUE(linked.ok()) << linked.status().message();
    ExpectSameOutput(reference, *linked, threads);
  }
}

TEST(ParallelPipelineTest, FullPairsBlockingAlsoDeterministic) {
  const auto [a, b] = OverlappingDatabases(80);
  PipelineConfig config;
  config.bloom.num_bits = 500;
  config.blocking = BlockingScheme::kNone;
  config.match_threshold = 0.8;
  const LinkageOutput reference = MaterializedReference(config, a, b);
  for (const size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    PipelineConfig parallel_config = config;
    parallel_config.num_threads = threads;
    const auto linked = PprlPipeline(parallel_config).Link(a, b);
    ASSERT_TRUE(linked.ok()) << linked.status().message();
    ExpectSameOutput(reference, *linked, threads);
  }
}

/// Current value of a counter series in the global registry (0 before
/// its first registration).
double CounterValue(const std::string& name, const obs::Labels& labels = {}) {
  for (const obs::MetricSnapshot& m : obs::GlobalMetrics().Snapshot()) {
    if (m.name == name && m.labels == labels) return m.value;
  }
  return 0;
}

/// Every batch link reports its comparisons to the operator's counters,
/// whatever the thread count — the reuse-factor formula in
/// docs/OBSERVABILITY.md divides by pprl_compare_pairs_total.
TEST(ParallelPipelineTest, CompareCountersMatchLinkOutput) {
  const auto [a, b] = OverlappingDatabases(200);
  PipelineConfig config;
  config.bloom.num_bits = 500;
  const obs::Labels parallel_path = {{"path", "kernel-parallel"}};
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    config.num_threads = threads;
    const double pairs_before = CounterValue("pprl_compare_pairs_total");
    const double pruned_before = CounterValue("pprl_compare_pairs_pruned_total");
    const double calls_before = CounterValue("pprl_compare_calls_total", parallel_path);
    const auto linked = PprlPipeline(config).Link(a, b);
    ASSERT_TRUE(linked.ok()) << linked.status().message();
    EXPECT_GT(linked->comparisons, 0u);
    EXPECT_EQ(CounterValue("pprl_compare_pairs_total") - pairs_before,
              static_cast<double>(linked->comparisons))
        << threads << " threads";
    EXPECT_EQ(CounterValue("pprl_compare_pairs_pruned_total") - pruned_before,
              static_cast<double>(linked->pruned_comparisons))
        << threads << " threads";
    EXPECT_EQ(CounterValue("pprl_compare_calls_total", parallel_path) - calls_before, 1.0)
        << threads << " threads";
  }
}

/// LinkageUnitService::Link's connected-components output rebuilt from the
/// materializing functions: per database pair, CandidatePairs scored by
/// ComparisonEngine::Compare with Link()'s threshold tolerance.
MultiPartyLinkageResult MaterializedReference(const LinkageUnitService& unit,
                                              const MultiPartyLinkageOptions& options) {
  const std::vector<EncodedDatabase>& dbs = unit.databases();
  Rng rng(options.lsh_seed);
  const HammingLshBlocker blocker(dbs[0].filters[0].size(), options.lsh_tables,
                                  options.lsh_bits_per_key, rng);
  std::vector<BlockIndex> indexes;
  for (const EncodedDatabase& db : dbs) indexes.push_back(blocker.BuildIndex(db.filters));
  const ComparisonEngine engine(SimilarityMeasure::kDice);
  MultiPartyLinkageResult result;
  for (uint32_t d1 = 0; d1 < dbs.size(); ++d1) {
    for (uint32_t d2 = d1 + 1; d2 < dbs.size(); ++d2) {
      const auto candidates = HammingLshBlocker::CandidatePairs(indexes[d1], indexes[d2]);
      const auto scored = engine.Compare(dbs[d1].filters, dbs[d2].filters, candidates,
                                         options.dice_threshold - 2e-12);
      result.candidate_pairs += candidates.size();
      result.comparisons += engine.last_comparison_count();
      result.pruned_comparisons += engine.last_pruned_count();
      for (const ScoredPair& pair : scored) {
        if (pair.score + 1e-12 >= options.dice_threshold) {
          result.edges.push_back({{d1, pair.a}, {d2, pair.b}, pair.score});
        }
      }
    }
  }
  result.clusters = ConnectedComponents(result.edges);
  return result;
}

/// The multi-party service path: every worker count and a borrowed shared
/// scheduler must agree with the materialized reference on edges, clusters
/// and counters.
TEST(ParallelPipelineTest, MultiPartyLinkIdenticalAcrossWorkerCounts) {
  DataGenerator gen(GeneratorConfig{});
  LinkageScenarioConfig scenario;
  scenario.records_per_database = 120;
  scenario.num_databases = 3;
  scenario.overlap = 0.4;
  scenario.corruption.mean_corruptions = 1.0;
  auto dbs = gen.GenerateScenario(scenario);
  ASSERT_TRUE(dbs.ok());

  PipelineConfig encoder_config;
  const ClkEncoder encoder(encoder_config.bloom, PprlPipeline::DefaultFieldConfigs());
  Channel channel;
  LinkageUnitService unit("lu");
  for (size_t d = 0; d < dbs->size(); ++d) {
    DatabaseOwner owner("owner-" + std::to_string(d), std::move((*dbs)[d]));
    ASSERT_TRUE(owner.Encode(encoder).ok());
    auto shipment = owner.ShipEncodings(channel, unit.name());
    ASSERT_TRUE(shipment.ok());
    ASSERT_TRUE(unit.Receive(owner.name(), std::move(shipment).value()).ok());
  }

  MultiPartyLinkageOptions options;
  options.dice_threshold = 0.8;
  options.use_star_clustering = false;  // exercise parallel union-find
  const MultiPartyLinkageResult reference = MaterializedReference(unit, options);
  EXPECT_FALSE(reference.edges.empty());

  auto expect_same = [&](const MultiPartyLinkageResult& actual, const std::string& label) {
    ASSERT_EQ(reference.edges.size(), actual.edges.size()) << label;
    for (size_t i = 0; i < reference.edges.size(); ++i) {
      EXPECT_EQ(reference.edges[i].x, actual.edges[i].x) << label << ", edge " << i;
      EXPECT_EQ(reference.edges[i].y, actual.edges[i].y) << label << ", edge " << i;
      EXPECT_EQ(reference.edges[i].score, actual.edges[i].score) << label << ", edge " << i;
    }
    ASSERT_EQ(reference.clusters.size(), actual.clusters.size()) << label;
    for (size_t i = 0; i < reference.clusters.size(); ++i) {
      EXPECT_EQ(reference.clusters[i], actual.clusters[i]) << label << ", cluster " << i;
    }
    EXPECT_EQ(reference.candidate_pairs, actual.candidate_pairs) << label;
    EXPECT_EQ(reference.comparisons, actual.comparisons) << label;
    EXPECT_EQ(reference.pruned_comparisons, actual.pruned_comparisons) << label;
  };

  for (const size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    MultiPartyLinkageOptions parallel_options = options;
    parallel_options.num_threads = threads;
    const auto parallel = unit.Link(parallel_options);
    ASSERT_TRUE(parallel.ok()) << parallel.status().message();
    expect_same(*parallel, std::to_string(threads) + " threads");
  }

  WorkStealingScheduler shared(4);
  MultiPartyLinkageOptions shared_options = options;
  shared_options.scheduler = &shared;
  const auto borrowed = unit.Link(shared_options);
  ASSERT_TRUE(borrowed.ok()) << borrowed.status().message();
  expect_same(*borrowed, "borrowed scheduler");
}

/// The tiled compare path re-orders kernel execution by (a-tile, b-tile)
/// and optionally scores against worker-local B-row copies. None of that
/// may reach the output: hits (values, order, scores — bitwise), counters
/// and the clusters derived from the hits must be identical for every
/// thread count and every tile geometry, including degenerate ones.
TEST(ParallelPipelineTest, TiledExecutionDeterministicAcrossThreadsAndTiles) {
  Rng rng(97);
  const size_t kBits = 600;
  auto random_filters = [&](size_t n) {
    std::vector<BitVector> rows;
    rows.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      BitVector v(kBits);
      for (size_t bit = 0; bit < kBits; ++bit) {
        if (rng.NextDouble() < 0.3) v.Set(bit);
      }
      rows.push_back(std::move(v));
    }
    return rows;
  };
  const BitMatrix ma = BitMatrix::FromVectors(random_filters(300));
  const BitMatrix mb = BitMatrix::FromVectors(random_filters(300));

  // Skewed blocks: key k holds every record with i % 13 == k plus, for
  // k == 0, a giant block of half of each side — the shape stealing and
  // tiling have to keep balanced without reordering output.
  BlockIndex index_a;
  BlockIndex index_b;
  for (uint32_t i = 0; i < ma.num_rows(); ++i) {
    index_a["k" + std::to_string(i % 13)].push_back(i);
    if (i < ma.num_rows() / 2) index_a["k0"].push_back(i);
  }
  for (uint32_t i = 0; i < mb.num_rows(); ++i) {
    index_b["k" + std::to_string(i % 13)].push_back(i);
    if (i >= mb.num_rows() / 2) index_b["k0"].push_back(i);
  }

  // The materialized reference. 0.40 sits ~2.6 sigma above the mean Dice
  // of independent 0.3-density filters: enough hits to make the equality
  // assertions meaningful, rare enough that the prune and threshold paths
  // stay exercised.
  const auto candidates = StandardBlocker::CandidatePairs(index_a, index_b);
  const ComparisonEngine engine(SimilarityMeasure::kDice);
  const std::vector<ScoredPair> reference_hits =
      engine.CompareMatrices(ma, mb, candidates, 0.40);
  ASSERT_FALSE(reference_hits.empty());
  const auto reference_clusters = ConnectedComponents([&] {
    std::vector<MatchEdge> edges;
    for (const ScoredPair& hit : reference_hits) {
      edges.push_back({{0, hit.a}, {1, hit.b}, hit.score});
    }
    return edges;
  }());

  struct TileGeometry {
    const char* label;
    size_t tile_a_rows;
    size_t tile_b_rows;
    size_t shard_size;
  };
  const TileGeometry geometries[] = {
      {"tiny", 1, 8, 1024},          // every bucket a handful of pairs
      {"default", 0, 0, 0},          // auto-sized from the cache hierarchy
      {"huge", 1 << 20, 1 << 20, 1 << 22},  // one bucket per shard
  };
  for (const size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    for (const TileGeometry& geometry : geometries) {
      ParallelLinkageOptions options;
      options.num_threads = threads;
      options.tile_a_rows = geometry.tile_a_rows;
      options.tile_b_rows = geometry.tile_b_rows;
      options.shard_size = geometry.shard_size;
      options.b_copy_min_reuse = 1;  // force the copy path wherever legal
      const StreamCompareResult actual = StreamCompareBlocked(
          SimilarityMeasure::kDice, ma, mb, index_a, index_b, 0.40, options);
      const std::string label =
          std::string(geometry.label) + " tiles, " + std::to_string(threads) + " threads";
      ASSERT_EQ(reference_hits.size(), actual.hits.size()) << label;
      for (size_t i = 0; i < reference_hits.size(); ++i) {
        EXPECT_EQ(reference_hits[i], actual.hits[i]) << label << ", hit " << i;
      }
      EXPECT_EQ(candidates.size(), actual.comparisons) << label;
      EXPECT_EQ(engine.last_pruned_count(), actual.pruned) << label;
      std::vector<MatchEdge> edges;
      for (const ScoredPair& hit : actual.hits) {
        edges.push_back({{0, hit.a}, {1, hit.b}, hit.score});
      }
      const auto clusters = ConnectedComponents(edges);
      ASSERT_EQ(reference_clusters.size(), clusters.size()) << label;
      for (size_t i = 0; i < reference_clusters.size(); ++i) {
        EXPECT_EQ(reference_clusters[i], clusters[i]) << label << ", cluster " << i;
      }
    }
  }
}

/// Out-of-range tuning must clamp, not crash or silently misbehave — and
/// auto (0) knobs must resolve to something sane for the filter width.
TEST(ParallelPipelineTest, TuningValidationClampsAbsurdValues) {
  ParallelLinkageOptions absurd;
  absurd.num_threads = 0;
  absurd.shard_size = 3;
  absurd.max_pending_shards = 1000000000;
  absurd.tile_b_rows = 2;
  const ResolvedParallelTuning clamped = ResolveParallelTuning(absurd, 500);
  EXPECT_EQ(clamped.num_threads, 1u);
  EXPECT_EQ(clamped.shard_size, 1024u);
  EXPECT_EQ(clamped.max_pending_shards, 1024u);
  EXPECT_EQ(clamped.tile_b_rows, 8u);

  const ResolvedParallelTuning automatic =
      ResolveParallelTuning(ParallelLinkageOptions{}, 500);
  EXPECT_GE(automatic.shard_size, 16384u);
  EXPECT_LE(automatic.shard_size, 524288u);
  EXPECT_GE(automatic.tile_b_rows, 64u);
  EXPECT_GE(automatic.tile_a_rows, 16u);
  EXPECT_GE(automatic.max_pending_shards, 8u);
  EXPECT_EQ(automatic.row_bytes, 64u);  // 500 bits -> 8 words -> one line
}

TEST(ParallelClusteringTest, ConnectedComponentsParity) {
  Rng rng(41);
  std::vector<MatchEdge> edges;
  for (int i = 0; i < 5000; ++i) {
    MatchEdge e;
    e.x = {static_cast<uint32_t>(rng.NextUint64(3)),
           static_cast<uint32_t>(rng.NextUint64(800))};
    e.y = {static_cast<uint32_t>(rng.NextUint64(3)),
           static_cast<uint32_t>(rng.NextUint64(800))};
    e.score = 0.8 + 0.2 * rng.NextDouble();
    edges.push_back(e);
  }
  const auto serial = ConnectedComponents(edges);
  ASSERT_FALSE(serial.empty());
  for (const size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    WorkStealingScheduler scheduler(threads);
    const auto parallel = ParallelConnectedComponents(edges, scheduler);
    ASSERT_EQ(serial.size(), parallel.size()) << threads << " threads";
    for (size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(serial[i], parallel[i]) << threads << " threads, cluster " << i;
    }
  }
}

}  // namespace
}  // namespace pprl
