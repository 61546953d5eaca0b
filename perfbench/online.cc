// online_query and online_churn: the daemon's read path and its durable
// write path, driven over loopback against a `pprl_linkd --online` child.
// Inputs are real datagen records encoded by the owners (1000-bit CLKs),
// so LSH buckets have the collision profile real data gives them.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "blocking/lsh_index.h"
#include "common/random.h"
#include "daemon.h"
#include "inputs.h"
#include "linkage/online_linkage.h"
#include "pipeline/channel.h"
#include "service/client.h"
#include "service/durability.h"
#include "stats.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using pprl::EncodedDatabase;
using pprl::EncodedShard;
using pprl::OnlineLinkageEngine;
using pprl::QueryRecordResult;

constexpr size_t kFilterBits = 1000;
constexpr size_t kAppendBatch = 512;   ///< rows per bulk append frame
constexpr size_t kQueryBatch = 64;     ///< rows per batched query frame

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Micros(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

// ---------------------------------------------------------------------------
// Inputs

struct OnlineInputs {
  EncodedShard a;      ///< owner A, appended first
  EncodedShard b;      ///< owner B rows: queries, or churn appends
  EncodedDatabase a_db;  ///< the same rows as per-record filters, for the
  EncodedDatabase b_db;  ///< in-process replay (OnlineDurability's input)
  /// Ground truth, for match_f1 only: entity of every A record id, and of
  /// every B row. The daemon never sees it.
  std::unordered_map<uint64_t, uint64_t> a_entity;
  std::vector<uint64_t> b_entity;
  uint64_t digest = 0;
};

/// A `records`-per-side datagen scenario; all of A and the first
/// `b_rows` of B are encoded. In a traced run the owners' encoding is
/// spanned, as the encoding layer's share of the workload.
OnlineInputs MakeOnlineInputs(size_t records, size_t b_rows, uint64_t seed,
                              size_t threads, Tracer* tracer) {
  Scenario scenario = MakeScenario(records, seed);
  OnlineInputs in;
  in.digest = ScenarioDigest(scenario);
  scenario.b.records.resize(std::min(b_rows, scenario.b.records.size()));
  {
    ScopedSpan root(tracer, "owner.prepare");
    {
      ScopedSpan span(tracer, "encoding.encode");
      in.a = EncodeOwner(scenario.a, threads);
    }
    ScopedSpan span(tracer, "encoding.encode");
    in.b = EncodeOwner(scenario.b, threads);
  }
  in.a_db = pprl::EncodedDatabaseFromShard(in.a);
  in.b_db = pprl::EncodedDatabaseFromShard(in.b);
  for (const pprl::Record& r : scenario.a.records) in.a_entity[r.id] = r.entity_id;
  for (const pprl::Record& r : scenario.b.records) in.b_entity.push_back(r.entity_id);
  return in;
}

/// F1 of the links the daemon's replies imply: B row r links to its best
/// match in owner A's database (database 0), if any. A link is right when
/// both records belong to one entity; a B row whose entity is in A and
/// that gets no right link counts as a missed match. `replies[r]` is null
/// for rows that were not asked about.
double ReplyF1(const OnlineInputs& in, const std::vector<const QueryRecordResult*>& replies) {
  std::unordered_set<uint64_t> in_a;
  for (const auto& [id, entity] : in.a_entity) in_a.insert(entity);
  double tp = 0, fp = 0, fn = 0;
  for (size_t r = 0; r < replies.size(); ++r) {
    if (replies[r] == nullptr) continue;
    const uint64_t entity = in.b_entity[r];
    const pprl::QueryMatch* best = nullptr;
    for (const pprl::QueryMatch& m : replies[r]->matches) {
      if (m.database == 0) {
        best = &m;
        break;
      }
    }
    const bool right = best != nullptr && in.a_entity.at(best->id) == entity;
    if (right) {
      ++tp;
    } else {
      if (best != nullptr) ++fp;
      if (in_a.count(entity)) ++fn;
    }
  }
  return tp > 0 ? 2 * tp / (2 * tp + fp + fn) : 0;
}

// ---------------------------------------------------------------------------
// Reply comparison

bool SameReply(const QueryRecordResult& x, const QueryRecordResult& y) {
  return x.id == y.id && x.cluster_id == y.cluster_id &&
         x.cluster_size == y.cluster_size && x.candidates == y.candidates &&
         x.matches == y.matches;
}

/// The in-process engine's answer in the daemon's wire form.
QueryRecordResult ToWire(uint64_t id, const pprl::OnlineQueryResult& r) {
  QueryRecordResult out;
  out.id = id;
  out.cluster_id = r.cluster_id;
  out.cluster_size = r.cluster_size;
  out.candidates = r.candidates;
  for (const pprl::OnlineMatch& m : r.matches) {
    out.matches.push_back(pprl::QueryMatch{m.database, m.record, m.id, m.score});
  }
  return out;
}

QueryRecordResult EngineQuery(OnlineLinkageEngine& engine, const EncodedDatabase& db,
                              size_t row, bool want_clusters) {
  auto r =
      engine.Query(db.filters[row], OnlineLinkageEngine::kNoDatabase, want_clusters, 0);
  if (!r.ok()) {
    QueryRecordResult failed;
    failed.id = UINT64_MAX;  // never equal to a socket reply
    return failed;
  }
  return ToWire(db.ids[row], *r);
}

// ---------------------------------------------------------------------------
// Daemon sessions

pprl::OnlineLinkClientConfig ClientConfig(uint16_t port) {
  pprl::OnlineLinkClientConfig config;
  config.port = port;
  return config;
}

/// Appends all rows of `shard` in kAppendBatch frames; one checked op per
/// frame (the ack cursor must advance by exactly the frame's rows).
bool BulkAppend(pprl::OnlineLinkClient& client, const EncodedShard& shard,
                WorkloadResult* result) {
  bool all_ok = true;
  for (size_t row = 0; row < shard.size(); row += kAppendBatch) {
    const size_t end = std::min(shard.size(), row + kAppendBatch);
    auto cursor = client.AppendRows(shard, row, end);
    const bool ok = cursor.ok() && *cursor == end;
    result->Check(ok, "bulk append at row " + std::to_string(row) + ": " +
                          (cursor.ok() ? "cursor " + std::to_string(*cursor)
                                       : cursor.status().ToString()));
    all_ok = all_ok && ok;
    if (!ok) break;
  }
  return all_ok;
}

std::unique_ptr<Daemon> StartDaemon(const RunOptions& options,
                                    const std::vector<std::string>& args,
                                    const std::string& log_name) {
  auto daemon = Daemon::Start(options.linkd, args, options.workdir + "/" + log_name);
  if (!daemon.ok()) throw std::runtime_error(daemon.status().ToString());
  return std::move(daemon).value();
}

std::optional<double> ScrapeMean(const Daemon& daemon, const std::string& histogram) {
  auto text = daemon.ScrapeMetrics();
  if (!text.ok()) return std::nullopt;
  const HistogramTotals totals = ParseHistogram(*text, histogram);
  if (totals.count <= 0) return std::nullopt;
  return totals.sum / totals.count;
}

/// total / count, with an empty count read as one.
double PerOp(double total, uint64_t count) {
  return total / static_cast<double>(std::max<uint64_t>(1, count));
}

double RelDiff(double measured, double reference) {
  return reference > 0 ? std::fabs(measured - reference) / reference : 0;
}

/// Adds `<stem>_p50_us` and `<stem>_p90_us`. The tail is p90, not p99: on
/// a shared host the p99 of these runs does not repeat within a tenth
/// from one run to the next (see perfbench/README.md).
void AddLatency(WorkloadResult* result, const std::string& stem,
                const std::vector<double>& us) {
  result->Add(stem + "_p50_us", Median(us), "us");
  if (auto p90 = TailPercentile(us, 0.9)) {
    result->Add(stem + "_p90_us", *p90, "us");
  } else {
    result->Check(false, stem + ": " + std::to_string(us.size()) +
                             " samples, fewer than a p90 needs (" +
                             std::to_string(SamplesForTail(0.9)) + ")");
  }
}

}  // namespace

// ===========================================================================
// online_query: the read path.
//
// A non-durable daemon holds owner A's 100k CLKs (12.5 MB of rows, more
// than the L2 cache). One closed-loop client (each request waits for its
// reply) sends owner B's records as single-record link queries, then as
// 64-record batches. Socket, codec, LSH probe and candidate compare are on
// the path; encoding, WAL writes and partition refresh are not.

namespace {

constexpr size_t kQueryIndexed = 100000;
constexpr size_t kQueryRows = 20000;
constexpr int kQuerySetupReps = 3;
constexpr double kSliceSeconds = 0.5;

struct QueryOp {
  size_t row_begin = 0;
  size_t row_end = 0;
  std::vector<QueryRecordResult> replies;
};

pprl::LshBandIndex MakeBandIndex() {
  const pprl::OnlineLinkageOptions defaults;
  return pprl::LshBandIndex(kFilterBits, defaults.lsh_tables, defaults.lsh_bits_per_key,
                            defaults.lsh_seed);
}

/// In-process engine and band index holding owner A, built exactly as the
/// daemon builds its own (same options, same append order). With a tracer
/// every append is spanned as one request, numbered from `first_request`.
struct QueryReplica {
  OnlineLinkageEngine engine{kFilterBits};
  pprl::LshBandIndex index = MakeBandIndex();

  QueryReplica(const OnlineInputs& in, Tracer* tracer, uint64_t first_request) {
    const uint32_t db = engine.RegisterDatabase("owner-a");
    for (size_t i = 0; i < in.a_db.size(); ++i) {
      const uint64_t request = first_request + i;
      ScopedSpan root(tracer, "service.request", request);
      {
        ScopedSpan span(tracer, "linkage.append", request);
        if (!engine.Append(db, in.a_db.ids[i], in.a_db.filters[i]).ok()) {
          throw std::runtime_error("in-process append failed");
        }
      }
      ScopedSpan span(tracer, "blocking.index", request);
      index.Append(in.a_db.filters[i]);
    }
  }
};

struct QueryReplayStats {
  double seconds = 0;
  uint64_t candidates = 0;  ///< LshBandIndex::Probe candidates
  uint64_t matches = 0;
  uint64_t queries = 0;
};

/// Replays socket requests [begin, end) in order against the replica: one
/// OnlineLinkageEngine::Query per record, plus an LshBandIndex::Probe of
/// the same record. Spans only when `tracer` is set; replies are checked
/// against the socket's either way.
QueryReplayStats ReplayQueries(QueryReplica& replica, const OnlineInputs& in,
                               const std::vector<QueryOp>& ops, size_t begin, size_t end,
                               Tracer* tracer, WorkloadResult* result) {
  QueryReplayStats stats;
  std::vector<uint32_t> probe_out;
  const Clock::time_point start = Clock::now();
  for (size_t k = begin; k < end; ++k) {
    const QueryOp& op = ops[k];
    ScopedSpan request(tracer, "service.request", k + 1);
    bool same = op.replies.size() == op.row_end - op.row_begin;
    for (size_t row = op.row_begin; same && row < op.row_end; ++row) {
      QueryRecordResult reply;
      {
        ScopedSpan span(tracer, "linkage.query", k + 1);
        reply = EngineQuery(replica.engine, in.b_db, row, false);
      }
      {
        ScopedSpan span(tracer, "blocking.probe", k + 1);
        replica.index.Probe(in.b_db.filters[row], &probe_out);
      }
      same = SameReply(reply, op.replies[row - op.row_begin]);
      stats.candidates += probe_out.size();
      stats.matches += reply.matches.size();
      ++stats.queries;
    }
    // Only the traced replay counts as the check; the untraced one is the
    // overhead baseline and runs the identical comparison.
    if (tracer) {
      result->Check(same, "request " + std::to_string(k) +
                              ": socket reply differs from the in-process engine");
    }
  }
  stats.seconds = Since(start);
  return stats;
}

}  // namespace

WorkloadResult RunOnlineQuery(const RunOptions& options) {
  WorkloadResult result;
  Tracer tracer;
  Tracer* const trace = options.trace ? &tracer : nullptr;
  const OnlineInputs in =
      MakeOnlineInputs(kQueryIndexed, kQueryRows, options.seed, options.threads, trace);
  result.Size("indexed_records", in.a.size());
  result.Size("query_records", in.b.size());
  result.Size("filter_bits", kFilterBits);
  result.Size("query_batch", kQueryBatch);
  result.Size("input_digest", Hex64(in.digest));

  // Set-up: start the daemon and preload owner A over the socket.
  std::vector<double> setup_seconds;
  std::unique_ptr<Daemon> daemon;
  const int setup_reps = options.trace ? 1 : kQuerySetupReps;
  for (int rep = 0; rep < setup_reps; ++rep) {
    if (daemon) {
      result.Check(daemon->Terminate().ok(), "daemon did not stop cleanly");
      daemon.reset();
    }
    const Clock::time_point start = Clock::now();
    daemon = StartDaemon(options, {}, "linkd_query.log");
    pprl::OnlineLinkClient writer(ClientConfig(daemon->port()));
    result.Check(writer.Connect("owner-a", kFilterBits).ok(), "owner A connect");
    if (!BulkAppend(writer, in.a, &result)) return result;
    writer.Close();
    setup_seconds.push_back(Since(start));
  }

  // Measured phases: closed loop, one client.
  pprl::Channel meter;
  pprl::OnlineLinkClient reader(ClientConfig(daemon->port()), &meter);
  result.Check(reader.Connect("owner-b", kFilterBits).ok(), "owner B connect");
  std::vector<QueryOp> ops;
  std::vector<double> single_us;

  const auto send = [&](size_t begin, size_t end) -> bool {
    QueryOp op;
    op.row_begin = begin;
    op.row_end = end;
    const Clock::time_point t0 = Clock::now();
    auto reply = reader.QueryRows(in.b, begin, end, /*want_clusters=*/false, /*top_k=*/0);
    const Clock::time_point t1 = Clock::now();
    bool ok = reply.ok() && reply->records.size() == end - begin;
    for (size_t i = 0; ok && i < end - begin; ++i) {
      ok = reply->records[i].id == in.b.ids[begin + i];
    }
    result.Check(ok, "query rows [" + std::to_string(begin) + ", " +
                         std::to_string(end) + ")");
    if (!ok) return false;
    if (end - begin == 1) single_us.push_back(Micros(t0, t1));
    op.replies = std::move(reply->records);
    ops.push_back(std::move(op));
    return true;
  };

  // Single-record and 64-record requests alternate in short slices for the
  // whole measured window, so both figures average over the same stretch
  // of host noise. query_qps is the median of the per-slice batch rates.
  size_t single_row = 0, batch_row = 0;
  size_t single_ops = 0, single_bytes = 0, batched_queries = 0;
  std::vector<double> slice_qps;
  const Clock::time_point measure_start = Clock::now();
  bool ok = true;
  for (size_t slice = 0; ok && Since(measure_start) < options.seconds; ++slice) {
    const Clock::time_point slice_start = Clock::now();
    const size_t bytes_before = meter.total_bytes();
    size_t slice_queries = 0;
    while (ok && Since(slice_start) < kSliceSeconds) {
      if (slice % 2 == 0) {
        ok = send(single_row, single_row + 1);
        single_row = (single_row + 1) % in.b.size();
        ++single_ops;
      } else {
        ok = send(batch_row, batch_row + kQueryBatch);
        batch_row += kQueryBatch;
        if (batch_row + kQueryBatch > in.b.size()) batch_row = 0;
        slice_queries += kQueryBatch;
      }
    }
    if (slice % 2 == 0) {
      single_bytes += meter.total_bytes() - bytes_before;
    } else {
      slice_qps.push_back(static_cast<double>(slice_queries) / Since(slice_start));
      batched_queries += slice_queries;
    }
  }
  const double peak_rss = daemon->PeakRssMb();
  const std::optional<double> daemon_query_mean =
      options.trace ? ScrapeMean(*daemon, "pprl_query_seconds") : std::nullopt;
  reader.Close();
  result.Check(daemon->Terminate().ok(), "daemon did not stop cleanly");
  daemon.reset();
  result.Size("single_queries", single_ops);
  result.Size("batched_queries", batched_queries);

  // The same query answered twice (the single phase cycles through B, and
  // the batch phase re-asks every row) must get the same reply.
  std::vector<const QueryRecordResult*> first(in.b.size(), nullptr);
  for (const QueryOp& op : ops) {
    for (size_t i = 0; i < op.replies.size(); ++i) {
      const QueryRecordResult*& seen = first[op.row_begin + i];
      if (seen == nullptr) {
        seen = &op.replies[i];
      } else if (!SameReply(*seen, op.replies[i])) {
        result.Check(false, "row " + std::to_string(op.row_begin + i) +
                                " answered differently on a repeat");
      }
    }
  }

  if (!options.trace) {
    // Every distinct reply against the in-process engine (untimed).
    QueryReplica replica(in, nullptr, 0);
    for (size_t r = 0; r < first.size(); ++r) {
      if (first[r] == nullptr) continue;
      result.Check(SameReply(*first[r], EngineQuery(replica.engine, in.b_db, r, false)),
                   "row " + std::to_string(r) + ": socket reply differs from the engine");
    }
    result.Sample("setup_s", setup_seconds);
    result.Sample("query_us", single_us);
    result.Sample("query_qps_slices", slice_qps);
    result.Add("setup_s", Median(setup_seconds), "s");
    result.Add("peak_rss_mb", peak_rss, "MiB");
    result.Add("match_f1", ReplyF1(in, first), "ratio");
    result.Add("records_per_s", Median(slice_qps), "1/s");
    result.Add("latency_p50_us", Median(single_us), "us");
    AddLatency(&result, "query", single_us);
    return result;
  }

  // Traced run: replay every request in-process with spans. The first
  // quarter is also replayed without spans beforehand; the two timings of
  // that quarter give the tracing overhead.
  // Replay requests are numbered 1..ops.size(); the replica's appends follow.
  QueryReplica replica(in, &tracer, ops.size() + 1);
  WorkloadResult ignored;
  const size_t prefix = ops.size() / 4;
  const QueryReplayStats baseline =
      ReplayQueries(replica, in, ops, 0, prefix, nullptr, &ignored);
  const QueryReplayStats traced_prefix =
      ReplayQueries(replica, in, ops, 0, prefix, &tracer, &result);
  QueryReplayStats traced =
      ReplayQueries(replica, in, ops, prefix, ops.size(), &tracer, &result);
  traced.candidates += traced_prefix.candidates;
  traced.matches += traced_prefix.matches;
  traced.queries += traced_prefix.queries;
  tracer.WriteJson(options.workdir + "/spans_online_query.json");

  const std::vector<Span>& spans = tracer.spans();
  std::vector<double> query_us, single_query_us, probe_us;
  for (const Span& s : spans) {
    if (s.name == "linkage.query") {
      query_us.push_back(s.seconds() * 1e6);
      const QueryOp& op = ops[s.request - 1];
      if (op.row_end - op.row_begin == 1) single_query_us.push_back(s.seconds() * 1e6);
    }
    if (s.name == "blocking.probe") probe_us.push_back(s.seconds() * 1e6);
  }
  const double socket_p50 = Median(single_us);
  result.Add("blocking.probe_us_p50", Median(probe_us), "us");
  result.Add("linkage.query_us_p50", Median(query_us), "us");
  result.Add("service.rpc_overhead_us_p50", socket_p50 - Median(single_query_us), "us");
  result.Add("net.bytes_per_query", PerOp(static_cast<double>(single_bytes), single_ops),
             "B");
  // The daemon's own pprl_query_seconds histogram against the in-process
  // Query spans (mean per query; both time OnlineLinkageEngine::Query).
  double query_sum_us = 0;
  for (const double us : query_us) query_sum_us += us;
  const double in_process_mean = PerOp(query_sum_us, query_us.size()) * 1e-6;
  LayerCounts counts;
  counts.encoded_records = static_cast<double>(in.a.size() + in.b.size());
  counts.probed_records = static_cast<double>(traced.queries);
  counts.candidates = static_cast<double>(traced.candidates);
  counts.matches = static_cast<double>(traced.matches);
  counts.channel_bytes = static_cast<double>(single_bytes);
  counts.channel_records = static_cast<double>(single_ops);
  counts.retries = static_cast<double>(reader.retries());
  counts.overhead_ratio = traced_prefix.seconds / baseline.seconds;
  counts.crosscheck =
      daemon_query_mean ? RelDiff(*daemon_query_mean, in_process_mean) : 1.0;
  AddLayerMetrics(spans, counts, &result);
  return result;
}

// ===========================================================================
// online_churn: the durable write path beside reads.
//
// A durable daemon (WAL, default group commit and checkpoint cadence)
//   1. starts on an empty directory and takes owner A's bulk load in
//      512-record frames (set-up, repeated; the last daemon carries on);
//   2. serves an open loop: owner B appends single records while a second
//      connection sends want_clusters link queries, both as Poisson
//      arrivals; every latency counts from when the request was due;
//   3. is stopped with SIGTERM and restarted on the same directory,
//      several times, each cycle timed until the daemon answers again; a
//      fixed probe set must get the same replies before and after.
// This is the only workload on the WAL, checkpoint, recovery, index growth
// and partition-refresh paths.

namespace {

constexpr size_t kChurnIndexed = 100000;
constexpr size_t kChurnBRows = 10000;
constexpr size_t kProbeRows = 256;
constexpr int kChurnSetupReps = 3;
constexpr int kRestartCycles = 5;
/// Open-loop rates (requests per second), chosen so the parent commit
/// keeps up without a growing backlog; see perfbench/README.md.
constexpr double kAppendRate = 500;
constexpr double kQueryRate = 10;
/// Share of --seconds spent in the open-loop phase.
constexpr double kOpenLoopShare = 0.7;

struct TimedQuery {
  size_t row = 0;
  uint64_t index_size = 0;  ///< index size the daemon reported with the reply
  QueryRecordResult reply;
};

/// Rows the cluster queries ask about: B's first 2000 rows, so early
/// queries ask for records not yet appended and later ones watch their
/// clusters form.
size_t QueryRow(size_t j) { return (j * 7919) % 2000; }

struct OpenLoopOutcome {
  std::vector<size_t> appends;  ///< B rows appended, in order
  std::vector<TimedQuery> queries;
  std::vector<double> append_us;
  std::vector<double> query_us;
  std::vector<double> late_ms;
  size_t append_bytes = 0;
  size_t retries = 0;
};

/// Offsets (seconds from the phase start) of a Poisson arrival stream:
/// exponential gaps with mean 1/rate, drawn from `seed`, up to `seconds`.
/// Independent users arrive this way; a fixed period would instead line
/// the two streams up on the same instants every few requests.
std::vector<double> PoissonSchedule(double rate, double seconds, uint64_t seed) {
  pprl::Rng rng(seed);
  std::vector<double> at;
  for (double t = 0; t < seconds; t += -std::log(1.0 - rng.NextDouble()) / rate) {
    at.push_back(t);
  }
  return at;
}

/// Phase 2. Each stream runs on its own thread and connection and sends
/// each request when it is due, or at once when it is already late.
OpenLoopOutcome RunOpenLoop(uint16_t port, const OnlineInputs& in, double seconds,
                            uint64_t seed, WorkloadResult* result) {
  OpenLoopOutcome out;
  std::vector<double> append_at = PoissonSchedule(kAppendRate, seconds, seed ^ 0xA99E4D);
  const std::vector<double> query_at =
      PoissonSchedule(kQueryRate, seconds, seed ^ 0xC1A55);
  if (append_at.size() > in.b.size()) append_at.resize(in.b.size());
  const size_t n_appends = append_at.size();
  const size_t n_queries = query_at.size();
  pprl::Channel append_meter;
  pprl::OnlineLinkClient writer(ClientConfig(port), &append_meter);
  pprl::OnlineLinkClient auditor(ClientConfig(port));
  result->Check(writer.Connect("owner-b", kFilterBits).ok(), "owner B connect");
  result->Check(auditor.Connect("auditor", kFilterBits).ok(), "auditor connect");
  std::vector<std::string> append_errors, query_errors;
  std::vector<double> append_late, query_late;
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  const auto due = [start](double offset) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(offset));
  };
  std::thread append_thread([&] {
    for (size_t i = 0; i < n_appends; ++i) {
      const Clock::time_point when = due(append_at[i]);
      std::this_thread::sleep_until(when);
      const Clock::time_point sent = Clock::now();
      auto cursor = writer.AppendRows(in.b, i, i + 1);
      const Clock::time_point acked = Clock::now();
      if (!cursor.ok() || *cursor != i + 1) {
        append_errors.push_back("append " + std::to_string(i) + ": " +
                                (cursor.ok() ? "cursor " + std::to_string(*cursor)
                                             : cursor.status().ToString()));
        break;
      }
      out.append_us.push_back(Micros(when, acked));
      append_late.push_back(Micros(when, sent) / 1e3);
      out.appends.push_back(i);
    }
  });
  std::thread query_thread([&] {
    for (size_t j = 0; j < n_queries; ++j) {
      const Clock::time_point when = due(query_at[j]);
      std::this_thread::sleep_until(when);
      TimedQuery op;
      op.row = QueryRow(j);
      const Clock::time_point sent = Clock::now();
      auto reply = auditor.QueryRows(in.b, op.row, op.row + 1, /*want_clusters=*/true, 0);
      const Clock::time_point answered = Clock::now();
      if (!reply.ok() || reply->records.size() != 1 ||
          reply->records[0].id != in.b.ids[op.row]) {
        query_errors.push_back(
            "cluster query " + std::to_string(j) + ": " +
            (reply.ok() ? "malformed reply" : reply.status().ToString()));
        break;
      }
      out.query_us.push_back(Micros(when, answered));
      query_late.push_back(Micros(when, sent) / 1e3);
      op.index_size = reply->index_size;
      op.reply = std::move(reply->records[0]);
      out.queries.push_back(std::move(op));
    }
  });
  append_thread.join();
  query_thread.join();
  result->attempted += out.appends.size() + out.queries.size();
  for (const std::string& e : append_errors) result->Check(false, e);
  for (const std::string& e : query_errors) result->Check(false, e);
  out.append_bytes = append_meter.total_bytes();
  out.retries = writer.retries() + auditor.retries();
  writer.Close();
  auditor.Close();
  out.late_ms = append_late;
  out.late_ms.insert(out.late_ms.end(), query_late.begin(), query_late.end());
  return out;
}

std::vector<QueryRecordResult> ProbeSet(uint16_t port, const OnlineInputs& in,
                                        WorkloadResult* result) {
  pprl::OnlineLinkClient auditor(ClientConfig(port));
  result->Check(auditor.Connect("auditor", kFilterBits).ok(), "auditor connect");
  auto reply = auditor.QueryRows(in.b, 0, kProbeRows, /*want_clusters=*/true, 0);
  auditor.Close();
  result->Check(reply.ok() && reply->records.size() == kProbeRows, "probe-set query");
  return reply.ok() ? std::move(reply->records) : std::vector<QueryRecordResult>{};
}


uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

struct ChurnReplayStats {
  double seconds = 0;
  double wal_bytes_per_record = 0;
  uint64_t probes = 0;      ///< cluster queries replayed
  uint64_t candidates = 0;  ///< LshBandIndex::Probe candidates they got
  uint64_t matches = 0;
};

/// Replays the socket run's operations in-process, in the order the
/// daemon applied them: OnlineDurability + engine on a scratch WAL
/// directory (the daemon's configuration), plus a plain engine that takes
/// the same appends directly so OnlineLinkageEngine::Append is timed on
/// its own, and an LshBandIndex that takes them too and is probed with
/// every cluster query, as the blocking layer. Query replies and the probe
/// sets are checked against the socket's.
ChurnReplayStats ReplayChurn(const OnlineInputs& in, const OpenLoopOutcome& loop,
                             const std::vector<QueryRecordResult>& probe_before,
                             const std::vector<QueryRecordResult>& probe_after,
                             const std::string& wal_dir,
                             Tracer* tracer, WorkloadResult* result) {
  std::error_code ec;
  fs::remove_all(wal_dir, ec);
  fs::create_directories(wal_dir);
  ChurnReplayStats stats;
  const auto check = [&](bool ok, const std::string& what) {
    if (tracer) result->Check(ok, what);
  };
  pprl::DurabilityConfig config;
  config.wal_dir = wal_dir;
  const Clock::time_point start = Clock::now();
  uint64_t request = 0;

  auto durable = std::make_unique<pprl::OnlineDurability>(config);
  OnlineLinkageEngine engine(kFilterBits);
  OnlineLinkageEngine plain(kFilterBits);
  pprl::LshBandIndex index = MakeBandIndex();
  std::vector<uint32_t> probe_out;
  const uint32_t plain_a = plain.RegisterDatabase("owner-a");
  uint32_t db = 0;
  for (size_t row = 0; row < in.a_db.size(); row += kAppendBatch) {
    const size_t end = std::min(in.a_db.size(), row + kAppendBatch);
    ScopedSpan root(tracer, "service.request", ++request);
    {
      ScopedSpan s(tracer, "service.durable_append", request);
      check(durable->DurableAppend(engine, "owner-a", in.a_db, row, end, &db).ok(),
            "replayed bulk append");
    }
    for (size_t i = row; i < end; ++i) {
      {
        ScopedSpan s(tracer, "linkage.append", request);
        check(plain.Append(plain_a, in.a_db.ids[i], in.a_db.filters[i]).ok(),
              "plain append");
      }
      ScopedSpan s(tracer, "blocking.index", request);
      index.Append(in.a_db.filters[i]);
    }
  }
  stats.wal_bytes_per_record =
      static_cast<double>(DirectoryBytes(wal_dir)) / static_cast<double>(in.a_db.size());

  // Phase 2 in apply order. A query reports the index size it saw when its
  // reply was built, but an append that waited for the query's exclusive
  // lock can land before that size is read; so a query reporting size s is
  // answered at s and, as the alternative, at s - 1.
  std::vector<size_t> order(loop.queries.size());
  for (size_t j = 0; j < order.size(); ++j) order[j] = j;
  std::stable_sort(order.begin(), order.end(), [&](size_t x, size_t y) {
    return loop.queries[x].index_size < loop.queries[y].index_size;
  });
  std::vector<std::optional<QueryRecordResult>> alternative(loop.queries.size());
  size_t next_query = 0;
  const uint32_t plain_b = plain.RegisterDatabase("owner-b");
  const auto answer_queries_at = [&](uint64_t size) {
    // Alternatives first: queries that will report size + 1.
    for (size_t k = next_query; k < order.size(); ++k) {
      const TimedQuery& q = loop.queries[order[k]];
      if (q.index_size > size + 1) break;
      // Verification only, outside every request span.
      if (q.index_size == size + 1) {
        alternative[order[k]] = EngineQuery(engine, in.b_db, q.row, true);
      }
    }
    while (next_query < order.size() &&
           loop.queries[order[next_query]].index_size <= size) {
      const size_t j = order[next_query++];
      const TimedQuery& q = loop.queries[j];
      ScopedSpan root(tracer, "service.request", ++request);
      {
        ScopedSpan s(tracer, "blocking.probe", request);
        index.Probe(in.b_db.filters[q.row], &probe_out);
      }
      {
        ScopedSpan s(tracer, "linkage.query", request);
        EngineQuery(engine, in.b_db, q.row, false);
      }
      QueryRecordResult reply;
      {
        ScopedSpan s(tracer, "linkage.cluster_query", request);
        reply = EngineQuery(engine, in.b_db, q.row, true);
      }
      ++stats.probes;
      stats.candidates += probe_out.size();
      stats.matches += reply.matches.size();
      const bool same = q.index_size == size &&
                        (SameReply(reply, q.reply) ||
                         (alternative[j] && SameReply(*alternative[j], q.reply)));
      check(same, "cluster query " + std::to_string(j) + " (index size " +
                      std::to_string(q.index_size) +
                      "): socket reply differs from replay");
    }
  };
  answer_queries_at(engine.size());
  for (const size_t row : loop.appends) {
    ScopedSpan root(tracer, "service.request", ++request);
    {
      ScopedSpan s(tracer, "service.durable_append", request);
      check(durable->DurableAppend(engine, "owner-b", in.b_db, row, row + 1, &db).ok(),
            "replayed append");
    }
    {
      ScopedSpan s(tracer, "linkage.append", request);
      check(plain.Append(plain_b, in.b_db.ids[row], in.b_db.filters[row]).ok(),
            "plain append");
    }
    {
      ScopedSpan s(tracer, "blocking.index", request);
      index.Append(in.b_db.filters[row]);
    }
    root.End();
    answer_queries_at(engine.size());
  }
  check(next_query == order.size(), "cluster queries left unmatched by index size");

  const auto probe = [&](OnlineLinkageEngine& e,
                         const std::vector<QueryRecordResult>& want, const char* when) {
    ScopedSpan root(tracer, "service.request", ++request);
    bool same = want.size() == kProbeRows;
    for (size_t r = 0; same && r < kProbeRows; ++r) {
      ScopedSpan s(tracer, "linkage.cluster_query", request);
      same = SameReply(EngineQuery(e, in.b_db, r, true), want[r]);
    }
    check(same, std::string("probe set ") + when + " differs from the replay");
  };
  probe(engine, probe_before, "before restart");
  {
    ScopedSpan root(tracer, "service.request", ++request);
    ScopedSpan s(tracer, "io.checkpoint", request);
    check(durable->Checkpoint(engine).ok(), "replayed checkpoint");
  }
  durable.reset();
  std::unique_ptr<OnlineLinkageEngine> recovered;
  {
    ScopedSpan root(tracer, "service.request", ++request);
    ScopedSpan s(tracer, "io.recover", request);
    pprl::OnlineDurability reopened(config);
    pprl::RecoveryReport report;
    check(reopened.Recover(&recovered, &report).ok() && recovered != nullptr,
          "replayed recovery");
  }
  if (recovered) probe(*recovered, probe_after, "after restart");
  stats.seconds = Since(start);
  return stats;
}

}  // namespace

WorkloadResult RunOnlineChurn(const RunOptions& options) {
  WorkloadResult result;
  Tracer tracer;
  const OnlineInputs in = MakeOnlineInputs(kChurnIndexed, kChurnBRows, options.seed,
                                           options.threads,
                                           options.trace ? &tracer : nullptr);
  const double open_loop_seconds = options.seconds * kOpenLoopShare;
  result.Size("indexed_records", in.a.size());
  result.Size("filter_bits", kFilterBits);
  result.Size("append_batch", kAppendBatch);
  result.Size("append_rate_per_s", static_cast<uint64_t>(kAppendRate));
  result.Size("cluster_query_rate_per_s", static_cast<uint64_t>(kQueryRate));
  result.Size("open_loop_seconds", std::to_string(open_loop_seconds));
  result.Size("input_digest", Hex64(in.digest));
  const std::string wal_dir = options.workdir + "/churn_wal";
  const std::vector<std::string> durable_args = {"--wal-dir", wal_dir};

  // Set-up and phase 1, several times: a fresh durable daemon on an empty
  // directory, then owner A's bulk load in kAppendBatch frames. setup_s is
  // the median of the whole (start + load), append_records_per_s is taken
  // from the median load; the last daemon carries on.
  std::vector<double> setup_seconds, bulk_seconds;
  std::unique_ptr<Daemon> daemon;
  for (int rep = 0; rep < (options.trace ? 1 : kChurnSetupReps); ++rep) {
    if (daemon) {
      result.Check(daemon->Terminate().ok(), "daemon did not stop cleanly");
      daemon.reset();
    }
    std::error_code ec;
    fs::remove_all(wal_dir, ec);
    fs::create_directories(wal_dir);
    const Clock::time_point start = Clock::now();
    daemon = StartDaemon(options, durable_args, "linkd_churn.log");
    pprl::OnlineLinkClient writer(ClientConfig(daemon->port()));
    result.Check(writer.Connect("owner-a", kFilterBits).ok(), "owner A connect");
    const Clock::time_point bulk_start = Clock::now();
    if (!BulkAppend(writer, in.a, &result)) return result;
    bulk_seconds.push_back(Since(bulk_start));
    setup_seconds.push_back(Since(start));
    writer.Close();
  }

  // Phase 2: open loop.
  const OpenLoopOutcome loop =
      RunOpenLoop(daemon->port(), in, open_loop_seconds, options.seed, &result);

  // Phase 3: probe set, SIGTERM, restart, probe set again.
  const std::vector<QueryRecordResult> probe_before =
      ProbeSet(daemon->port(), in, &result);
  double peak_rss = daemon->PeakRssMb();
  std::optional<double> daemon_insert_mean, daemon_query_mean;
  if (options.trace) {
    daemon_insert_mean = ScrapeMean(*daemon, "pprl_index_insert_seconds");
    daemon_query_mean = ScrapeMean(*daemon, "pprl_query_seconds");
  }
  // Several stop/restart cycles on the same directory; restart_s is their
  // median. Each cycle's probe set must match the pre-SIGTERM answers.
  std::vector<double> restart_seconds;
  std::vector<QueryRecordResult> probe_after;
  for (int cycle = 0; cycle < kRestartCycles; ++cycle) {
    const Clock::time_point stop = Clock::now();
    result.Check(daemon->Terminate().ok(), "daemon did not stop cleanly on SIGTERM");
    daemon.reset();
    daemon = StartDaemon(options, durable_args, "linkd_churn_restart.log");
    {
      pprl::OnlineLinkClient auditor(ClientConfig(daemon->port()));
      auto answered = auditor.Connect("auditor", kFilterBits).ok()
                          ? auditor.QueryRows(in.b, 0, 1, /*want_clusters=*/true, 0)
                          : pprl::Result<pprl::QueryResultMessage>(
                                pprl::Status::Internal("connect failed"));
      restart_seconds.push_back(Since(stop));
      result.Check(answered.ok(), "first query after restart");
      auditor.Close();
    }
    probe_after = ProbeSet(daemon->port(), in, &result);
    bool probes_same = probe_before.size() == probe_after.size() && !probe_before.empty();
    for (size_t r = 0; probes_same && r < probe_before.size(); ++r) {
      probes_same = SameReply(probe_before[r], probe_after[r]);
    }
    result.Check(probes_same, "probe set answered differently after restart");
    peak_rss = std::max(peak_rss, daemon->PeakRssMb());
  }
  // Linkage quality through the recovered state: every B row asked once,
  // in kQueryBatch-record frames, of the last restarted daemon.
  std::vector<QueryRecordResult> quality(in.b.size());
  std::vector<const QueryRecordResult*> quality_replies(in.b.size(), nullptr);
  {
    pprl::OnlineLinkClient auditor(ClientConfig(daemon->port()));
    result.Check(auditor.Connect("auditor", kFilterBits).ok(), "auditor connect");
    for (size_t row = 0; row < in.b.size(); row += kQueryBatch) {
      const size_t end = std::min(in.b.size(), row + kQueryBatch);
      auto reply = auditor.QueryRows(in.b, row, end, /*want_clusters=*/false, 0);
      bool ok = reply.ok() && reply->records.size() == end - row;
      for (size_t i = 0; ok && i < end - row; ++i) {
        ok = reply->records[i].id == in.b.ids[row + i];
        quality[row + i] = std::move(reply->records[i]);
        quality_replies[row + i] = &quality[row + i];
      }
      result.Check(ok, "quality query rows [" + std::to_string(row) + ", " +
                           std::to_string(end) + ")");
      if (!ok) break;
    }
    auditor.Close();
  }
  result.Check(daemon->Terminate().ok(), "restarted daemon did not stop cleanly");
  daemon.reset();
  result.Size("churn_appends", loop.appends.size());
  result.Size("churn_queries", loop.queries.size());

  if (!options.trace) {
    result.Sample("setup_s", setup_seconds);
    result.Sample("bulk_load_s", bulk_seconds);
    result.Sample("churn_append_us", loop.append_us);
    result.Sample("churn_query_us", loop.query_us);
    result.Sample("restart_s", restart_seconds);
    result.Add("setup_s", Median(setup_seconds), "s");
    result.Add("peak_rss_mb", peak_rss, "MiB");
    result.Add("match_f1", ReplyF1(in, quality_replies), "ratio");
    result.Add("records_per_s", static_cast<double>(in.a.size()) / Median(bulk_seconds),
               "1/s");
    result.Add("latency_p50_us", Median(loop.query_us), "us");
    // No append tail: it is set by the inline group-commit fsync and the
    // appends queued behind it, and on a shared host it moves by more than
    // any allowed bound from run to run (perfbench/README.md).
    result.Add("churn_append_p50_us", Median(loop.append_us), "us");
    AddLatency(&result, "churn_query", loop.query_us);
    result.Add("restart_s", Median(restart_seconds), "s");
    return result;
  }

  // Traced run: the in-process replay, untraced then traced.
  WorkloadResult ignored;
  const std::string replay_dir = options.workdir + "/churn_replay_wal";
  const ChurnReplayStats baseline =
      ReplayChurn(in, loop, probe_before, probe_after, replay_dir, nullptr, &ignored);
  const ChurnReplayStats traced =
      ReplayChurn(in, loop, probe_before, probe_after, replay_dir, &tracer, &result);
  tracer.WriteJson(options.workdir + "/spans_online_churn.json");

  const std::vector<Span>& spans = tracer.spans();
  const size_t bulk_requests = (in.a.size() + kAppendBatch - 1) / kAppendBatch;
  std::vector<double> append_us, durable_us, cluster_us, plain_us;
  double append_sum = 0, cluster_sum = 0;
  std::map<uint64_t, double> plain_by_request;
  for (const Span& s : spans) {
    if (s.name == "linkage.query") plain_by_request[s.request] = s.seconds();
  }
  double paired_plain = 0, paired_cluster = 0;
  for (const Span& s : spans) {
    const double us = s.seconds() * 1e6;
    if (s.name == "linkage.append") {
      append_us.push_back(us);
      append_sum += us;
    } else if (s.name == "service.durable_append" && s.request > bulk_requests) {
      durable_us.push_back(us);
    } else if (s.name == "linkage.cluster_query") {
      cluster_us.push_back(us);
      cluster_sum += us;
      if (auto it = plain_by_request.find(s.request); it != plain_by_request.end()) {
        paired_plain += it->second;
        paired_cluster += s.seconds();
      }
    } else if (s.name == "linkage.query") {
      plain_us.push_back(us);
    }
  }
  const double cluster_p50 = Median(cluster_us);
  const std::vector<double> checkpoint = Durations(spans, "io.checkpoint");
  const std::vector<double> recover = Durations(spans, "io.recover");
  result.Add("linkage.append_us_p50", Median(append_us), "us");
  result.Add("linkage.query_us_p50", Median(plain_us), "us");
  result.Add("linkage.cluster_query_us_p50", cluster_p50, "us");
  if (auto p90 = TailPercentile(cluster_us, 0.9)) {
    result.Add("linkage.cluster_query_us_p90", *p90, "us");
  }
  // Share of cluster-query time spent beyond a plain query of the same
  // record (partition refresh and cluster lookup), over the open loop.
  result.Add("linkage.refresh_share", (paired_cluster - paired_plain) / paired_cluster,
             "ratio");
  result.Add("service.durable_append_us_p50", Median(durable_us), "us");
  result.Add("io.wal_bytes_per_record", traced.wal_bytes_per_record, "B");
  result.Add("io.checkpoint_s", checkpoint.empty() ? 0 : checkpoint[0], "s");
  result.Add("io.recover_s", recover.empty() ? 0 : recover[0], "s");
  if (auto late = TailPercentile(loop.late_ms, 0.99)) {
    result.Add("loadgen.late_p99_ms", *late, "ms");
  }
  const double in_process_insert = PerOp(append_sum, append_us.size()) * 1e-6;
  const double in_process_query = PerOp(cluster_sum, cluster_us.size()) * 1e-6;
  const double insert_diff =
      daemon_insert_mean ? RelDiff(*daemon_insert_mean, in_process_insert) : 1.0;
  const double query_diff =
      daemon_query_mean ? RelDiff(*daemon_query_mean, in_process_query) : 1.0;
  result.Add("crosscheck.insert_rel_diff", insert_diff, "ratio");
  result.Add("crosscheck.query_rel_diff", query_diff, "ratio");
  LayerCounts counts;
  counts.encoded_records = static_cast<double>(in.a.size() + in.b.size());
  counts.probed_records = static_cast<double>(traced.probes);
  counts.candidates = static_cast<double>(traced.candidates);
  counts.matches = static_cast<double>(traced.matches);
  counts.channel_bytes = static_cast<double>(loop.append_bytes);
  counts.channel_records = static_cast<double>(loop.appends.size());
  counts.retries = static_cast<double>(loop.retries);
  counts.overhead_ratio = traced.seconds / baseline.seconds;
  counts.crosscheck = std::max(insert_diff, query_diff);
  AddLayerMetrics(spans, counts, &result);
  return result;
}

}  // namespace perfbench
