// batch_link: the volume path. Two datagen CSVs are read, linked by
// PprlPipeline::Link with the default configuration, and the match file is
// written. Encoding and blocking do most of the work here; the daemon, the
// WAL and the socket do none.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "blocking/blocking.h"
#include "blocking/lsh_blocking.h"
#include "common/bit_matrix.h"
#include "common/csv.h"
#include "common/random.h"
#include "datagen/io.h"
#include "encoding/bloom_filter.h"
#include "eval/metrics.h"
#include "inputs.h"
#include "linkage/classifier.h"
#include "linkage/matching.h"
#include "linkage/parallel_linkage.h"
#include "obs/metrics.h"
#include "pipeline/pipeline.h"
#include "similarity/similarity.h"
#include "stats.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

constexpr size_t kRecordsPerSide = 50000;
constexpr int kSetupReps = 5;

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

pprl::PipelineConfig LinkConfig(size_t threads) {
  pprl::PipelineConfig config;
  config.num_threads = threads;
  return config;
}

/// The match file pprl_cli link writes: a_id, b_id, dice.
pprl::Status WriteMatches(const std::string& path, const pprl::Database& a,
                          const pprl::Database& b,
                          const std::vector<pprl::ScoredPair>& matches) {
  pprl::CsvTable table;
  table.header = {"a_id", "b_id", "dice"};
  table.rows.reserve(matches.size());
  for (const pprl::ScoredPair& m : matches) {
    char dice[32];
    std::snprintf(dice, sizeof(dice), "%.4f", m.score);
    table.rows.push_back(
        {std::to_string(a.records[m.a].id), std::to_string(b.records[m.b].id), dice});
  }
  return pprl::WriteCsvFile(path, table);
}

struct Paths {
  std::string a_csv;
  std::string b_csv;
  std::string matches_csv;
};

/// One untraced end-to-end link: CSV read -> PprlPipeline::Link -> match
/// file written. Returns false (and fills `error`) when any step fails.
struct LinkRun {
  double seconds = 0;
  pprl::LinkageOutput output;
  pprl::Database a;
  pprl::Database b;
};

bool RunLink(const Paths& paths, size_t threads, LinkRun* run, std::string* error) {
  const Clock::time_point start = Clock::now();
  auto a = pprl::ReadDatabaseCsv(paths.a_csv);
  auto b = pprl::ReadDatabaseCsv(paths.b_csv);
  if (!a.ok() || !b.ok()) {
    *error = "csv read failed";
    return false;
  }
  auto output = pprl::PprlPipeline(LinkConfig(threads)).Link(*a, *b);
  if (!output.ok()) {
    *error = "link failed: " + output.status().ToString();
    return false;
  }
  const pprl::Status written = WriteMatches(paths.matches_csv, *a, *b, output->matches);
  if (!written.ok()) {
    *error = "match write failed: " + written.ToString();
    return false;
  }
  run->seconds = Since(start);
  run->output = std::move(output).value();
  run->a = std::move(a).value();
  run->b = std::move(b).value();
  return true;
}

/// Checks that hold for every link output: scores at or above the
/// threshold, each record matched at most once, ids in range, and the match
/// file on disk holds exactly the returned matches.
bool OutputValid(const LinkRun& run, const Paths& paths, double threshold,
                 std::string* error) {
  std::vector<bool> a_used(run.a.size()), b_used(run.b.size());
  for (const pprl::ScoredPair& m : run.output.matches) {
    if (m.a >= run.a.size() || m.b >= run.b.size() || m.score < threshold ||
        m.score > 1.0 || a_used[m.a] || b_used[m.b]) {
      *error = "invalid match (" + std::to_string(m.a) + ", " + std::to_string(m.b) + ")";
      return false;
    }
    a_used[m.a] = b_used[m.b] = true;
  }
  auto file = pprl::ReadCsvFile(paths.matches_csv);
  if (!file.ok() || file->rows.size() != run.output.matches.size()) {
    *error = "match file does not hold the returned matches";
    return false;
  }
  for (size_t i = 0; i < file->rows.size(); ++i) {
    const pprl::ScoredPair& m = run.output.matches[i];
    const std::vector<std::string>& row = file->rows[i];
    if (row.size() != 3 || row[0] != std::to_string(run.a.records[m.a].id) ||
        row[1] != std::to_string(run.b.records[m.b].id)) {
      *error = "match file row " + std::to_string(i) + " differs";
      return false;
    }
  }
  return true;
}

/// Re-scores a deterministic sample of matches from freshly encoded
/// records, so a wrong score cannot pass as long as it clears the
/// threshold.
bool ScoresVerified(const LinkRun& run, std::string* error) {
  const pprl::PipelineConfig defaults;
  const pprl::ClkEncoder encoder(defaults.bloom,
                                 pprl::PprlPipeline::DefaultFieldConfigs());
  const size_t n = run.output.matches.size();
  const size_t step = std::max<size_t>(1, n / 200);
  for (size_t i = 0; i < n; i += step) {
    const pprl::ScoredPair& m = run.output.matches[i];
    auto fa = encoder.Encode(run.a.schema, run.a.records[m.a]);
    auto fb = encoder.Encode(run.b.schema, run.b.records[m.b]);
    if (!fa.ok() || !fb.ok()) {
      *error = "re-encoding failed";
      return false;
    }
    const double dice = pprl::DiceSimilarity(*fa, *fb);
    if (std::fabs(dice - m.score) > 1e-12) {
      *error = "match " + std::to_string(i) + " scored " + std::to_string(m.score) +
               ", re-scored " + std::to_string(dice);
      return false;
    }
  }
  return true;
}

/// Sum of the pprl_stage_seconds{stage} histogram in this process's
/// registry, per stage.
std::map<std::string, double> StageSeconds() {
  std::map<std::string, double> out;
  for (const pprl::obs::MetricSnapshot& m : pprl::obs::GlobalMetrics().Snapshot()) {
    if (m.name != "pprl_stage_seconds") continue;
    for (const auto& [key, value] : m.labels) {
      if (key == "stage") out[value] += m.sum;
    }
  }
  return out;
}

struct TracedLink {
  double seconds = 0;
  std::vector<pprl::ScoredPair> matches;
  size_t candidates = 0;
  size_t comparisons = 0;
  size_t pruned = 0;
  size_t records = 0;
};

/// PprlPipeline::Link recomposed from the layers' public functions, with a
/// span around every call. Mirrors the pipeline's streaming path (the one
/// num_threads > 1 takes): the candidate runs are produced first and then
/// fed to the same run-shard comparison executor, so blocking and compare
/// time separate cleanly.
bool RunTracedLink(const Paths& paths, size_t threads, Tracer* tracer, TracedLink* out,
                   std::string* error) {
  const pprl::PipelineConfig config = LinkConfig(threads);
  ScopedSpan root(tracer, "pipeline.link", 1);
  pprl::Result<pprl::Database> a = pprl::Status::Internal("unread");
  pprl::Result<pprl::Database> b = pprl::Status::Internal("unread");
  {
    ScopedSpan span(tracer, "io.csv_read", 1);
    a = pprl::ReadDatabaseCsv(paths.a_csv);
    b = pprl::ReadDatabaseCsv(paths.b_csv);
  }
  if (!a.ok() || !b.ok()) {
    *error = "csv read failed";
    return false;
  }
  const pprl::ClkEncoder encoder(config.bloom, pprl::PprlPipeline::DefaultFieldConfigs());
  std::vector<pprl::BitVector> fa, fb;
  for (int side = 0; side < 2; ++side) {
    ScopedSpan span(tracer, "encoding.encode", 1);
    auto encoded = encoder.EncodeDatabase(side == 0 ? *a : *b);
    if (!encoded.ok()) {
      *error = "encode failed";
      return false;
    }
    (side == 0 ? fa : fb) = std::move(encoded).value();
  }
  pprl::Rng lsh_rng(config.seed);
  const size_t filter_bits = fa.empty() ? config.bloom.num_bits : fa[0].size();
  const pprl::HammingLshBlocker blocker(filter_bits, config.lsh_tables,
                                        config.lsh_bits_per_key, lsh_rng);
  pprl::BlockIndex index_a, index_b;
  {
    ScopedSpan span(tracer, "blocking.index", 1);
    index_a = blocker.BuildIndex(fa);
  }
  {
    ScopedSpan span(tracer, "blocking.index", 1);
    index_b = blocker.BuildIndex(fb);
  }
  pprl::ParallelLinkageOptions parallel_options;
  parallel_options.num_threads = threads;
  std::vector<pprl::CandidateShard> shards;
  {
    ScopedSpan span(tracer, "blocking.candidates", 1);
    const size_t shard_size =
        pprl::ResolveParallelTuning(parallel_options, filter_bits).shard_size;
    pprl::StreamBlockedPairRuns(index_a, index_b, shard_size,
                                [&](pprl::CandidateShard shard) {
                                  out->candidates += shard.num_pairs();
                                  shards.push_back(std::move(shard));
                                });
  }
  pprl::StreamCompareResult compared;
  {
    ScopedSpan span(tracer, "linkage.compare", 1);
    const pprl::BitMatrix ma = pprl::BitMatrix::FromVectors(fa);
    const pprl::BitMatrix mb = pprl::BitMatrix::FromVectors(fb);
    compared = pprl::StreamCompareShards(
        pprl::SimilarityMeasure::kDice, ma, mb, config.match_threshold, parallel_options,
        [&](const pprl::CandidateShardFn& emit) {
          for (pprl::CandidateShard& shard : shards) emit(std::move(shard));
        });
  }
  std::vector<pprl::ScoredPair> matches;
  {
    ScopedSpan span(tracer, "linkage.classify", 1);
    const pprl::ThresholdClassifier classifier(config.match_threshold,
                                               config.match_threshold);
    matches = classifier.SelectMatches(compared.hits);
    if (config.one_to_one) matches = pprl::GreedyOneToOne(std::move(matches));
  }
  {
    ScopedSpan span(tracer, "io.match_write", 1);
    const pprl::Status written = WriteMatches(paths.matches_csv, *a, *b, matches);
    if (!written.ok()) {
      *error = "match write failed";
      return false;
    }
  }
  out->seconds = root.End();
  out->matches = std::move(matches);
  out->comparisons = compared.comparisons;
  out->pruned = compared.pruned;
  out->records = a->size() + b->size();
  return true;
}

double RelDiff(double measured, double reference) {
  return reference > 0 ? std::fabs(measured - reference) / reference : 0;
}

}  // namespace

WorkloadResult RunBatchLink(const RunOptions& options) {
  WorkloadResult result;
  const Paths paths{options.workdir + "/batch_a.csv", options.workdir + "/batch_b.csv",
                    options.workdir + "/batch_matches.csv"};
  const double threshold = LinkConfig(options.threads).match_threshold;
  result.Size("records_per_side", kRecordsPerSide);
  result.Size("link_threads", options.threads);

  // Set-up: generate both owners' databases and write them as CSV, several
  // times; every repetition must give the same input.
  std::vector<double> setup_seconds;
  uint64_t digest = 0;
  for (int rep = 0; rep < (options.trace ? 1 : kSetupReps); ++rep) {
    const Clock::time_point start = Clock::now();
    const Scenario scenario = MakeScenario(kRecordsPerSide, options.seed);
    const bool written = pprl::WriteDatabaseCsv(paths.a_csv, scenario.a).ok() &&
                         pprl::WriteDatabaseCsv(paths.b_csv, scenario.b).ok();
    setup_seconds.push_back(Since(start));
    const uint64_t rep_digest = ScenarioDigest(scenario);
    result.Check(written && (rep == 0 || rep_digest == digest), "set-up input differs");
    digest = rep_digest;
  }
  result.Size("input_digest", Hex64(digest));

  if (!options.trace) {
    std::vector<double> link_seconds;
    std::vector<pprl::ScoredPair> first_matches;
    double f1 = 0;
    const Clock::time_point measure_start = Clock::now();
    double last = 0;
    do {
      LinkRun run;
      std::string error;
      bool ok = RunLink(paths, options.threads, &run, &error);
      if (ok) {
        link_seconds.push_back(run.seconds);
        last = run.seconds;
        if (first_matches.empty()) {
          ok = OutputValid(run, paths, threshold, &error) &&
               ScoresVerified(run, &error) && !run.output.matches.empty();
          first_matches = run.output.matches;
          const pprl::GroundTruth truth(run.a, run.b);
          f1 = pprl::EvaluateMatches(run.output.matches, truth).F1();
        } else if (run.output.matches != first_matches) {
          ok = false;
          error = "matches differ between repetitions";
        }
      }
      result.Check(ok, "batch link: " + error);
      if (!ok) break;
    } while (Since(measure_start) + last <= options.seconds);
    result.Size("link_repetitions", link_seconds.size());
    result.Size("matches", first_matches.size());
    result.Sample("setup_s", setup_seconds);
    result.Sample("link_s", link_seconds);
    // The request of this workload is the whole link, so its latency and
    // its record rate are two readings of the same repetitions.
    const double link_s = Median(link_seconds);
    result.Add("setup_s", Median(setup_seconds), "s");
    result.Add("peak_rss_mb", SelfPeakRssMb(), "MiB");
    result.Add("match_f1", f1, "ratio");
    result.Add("records_per_s", 2.0 * kRecordsPerSide / link_s, "1/s");
    result.Add("latency_p50_us", link_s * 1e6, "us");
    result.Add("link_s", link_s, "s");
    return result;
  }

  // Traced run: one untraced reference link, then the recomposition.
  LinkRun reference;
  std::string error;
  const bool reference_ok = RunLink(paths, options.threads, &reference, &error);
  result.Check(reference_ok, "reference link: " + error);
  if (!reference_ok) return result;
  std::map<std::string, double> stages = StageSeconds();

  Tracer tracer;
  TracedLink traced;
  const bool traced_ok = RunTracedLink(paths, options.threads, &tracer, &traced, &error);
  result.Check(traced_ok && traced.matches == reference.output.matches,
               traced_ok ? "traced recomposition gives different matches" : error);
  tracer.WriteJson(options.workdir + "/spans_batch_link.json");

  std::map<std::string, double> self = SelfSecondsByName(tracer.spans());
  const double encode = self["encoding.encode"];
  const double index = self["blocking.index"];
  const double candidates = self["blocking.candidates"];
  const double compare = self["linkage.compare"];
  const double classify = self["linkage.classify"];
  result.Size("matches", traced.matches.size());
  result.Add("encoding.encode_s", encode, "s");
  result.Add("blocking.index_s", index, "s");
  result.Add("blocking.candidates_s", candidates, "s");
  result.Add("blocking.candidate_pairs", static_cast<double>(traced.candidates), "count");
  result.Add("linkage.compare_s", compare, "s");
  result.Add("linkage.comparisons", static_cast<double>(traced.comparisons), "count");
  result.Add("linkage.pruned", static_cast<double>(traced.pruned), "count");
  result.Add("linkage.pairs_per_s", static_cast<double>(traced.comparisons) / compare,
             "1/s");
  result.Add("linkage.classify_s", classify, "s");
  result.Add("io.csv_read_s", self["io.csv_read"], "s");
  result.Add("io.match_write_s", self["io.match_write"], "s");
  result.Add("pipeline.channel_messages", static_cast<double>(reference.output.messages),
             "count");
  // The pipeline's own stage timers against the spans of the same layers.
  // With num_threads > 1 the pipeline's "block" stage only builds the
  // indexes; candidate generation streams inside its "compare" stage.
  const bool streaming = options.threads > 1;
  const double diffs[] = {
      RelDiff(encode, stages["encode"]),
      RelDiff(streaming ? index : index + candidates, stages["block"]),
      RelDiff(streaming ? candidates + compare : compare, stages["compare"]),
      RelDiff(classify, stages["classify"]),
  };
  LayerCounts counts;
  counts.encoded_records = static_cast<double>(traced.records);
  counts.probed_records = static_cast<double>(kRecordsPerSide);
  counts.candidates = static_cast<double>(traced.candidates);
  counts.matches = static_cast<double>(traced.matches.size());
  counts.channel_bytes = static_cast<double>(reference.output.bytes);
  counts.channel_records = static_cast<double>(traced.records);
  counts.overhead_ratio = traced.seconds / reference.seconds;
  counts.crosscheck = *std::max_element(std::begin(diffs), std::end(diffs));
  AddLayerMetrics(tracer.spans(), counts, &result);
  return result;
}

}  // namespace perfbench
