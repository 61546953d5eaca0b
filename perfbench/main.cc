// pprl_e2e — the repository's end-to-end benchmark program.
//
//   pprl_e2e --workload <batch_link|online_query|online_churn> --seed <n>
//            --seconds <s> --trace <0|1> --linkd <pprl_linkd binary>
//            --workdir <scratch dir> [--git-sha <sha>] [--source-digest <d>]
//
// Prints one header line ({"header": {...}}: host, ISA paths, build, seed,
// sizes, and count/min/quartiles/max of every repeated figure) and, as the
// last line, the result object {"correct", "attempted", "failed",
// "metrics"}. With --trace 0 the
// metrics are the workload's end-to-end metrics; with --trace 1 they are
// the per-layer metrics of a separate traced run. perfbench/run.py builds
// this binary and the daemon from source and calls it.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "stats.h"
#include "workload.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double SelfPeakRssMb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // kB -> MiB
}

namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

void AddLayerMetrics(const std::vector<Span>& spans, const LayerCounts& counts,
                     WorkloadResult* result) {
  const SpanSummary summary = Summarize(spans);
  const auto self = [&](const std::string& layer) {
    const auto it = summary.layer_self.find(layer);
    return it == summary.layer_self.end() ? 0.0 : it->second;
  };
  result->Add("encoding.self_s", self("encoding"), "s");
  result->Add("encoding.records_per_s", Ratio(counts.encoded_records, self("encoding")),
              "1/s");
  result->Add("blocking.self_s", self("blocking"), "s");
  result->Add("blocking.candidates_per_record",
              Ratio(counts.candidates, counts.probed_records), "count");
  result->Add("blocking.useful_ratio", Ratio(counts.matches, counts.candidates), "ratio");
  result->Add("linkage.self_s", self("linkage"), "s");
  result->Add("io.share", Ratio(self("io"), summary.root_seconds), "ratio");
  result->Add("net.bytes_per_record", Ratio(counts.channel_bytes, counts.channel_records),
              "B");
  result->Add("service.retries", counts.retries, "count");
  result->Add("pipeline.attributed_share", summary.attributed_share, "ratio");
  result->Add("trace.overhead_ratio", counts.overhead_ratio, "ratio");
  result->Add("crosscheck.max_rel_diff", counts.crosscheck, "ratio");
}

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// The compare-kernel path linkage/compare_kernels.cc selects on this
/// host, by the same __builtin_cpu_supports tests.
std::string KernelPath() {
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512vpopcntdq")) {
    return "avx512vpopcntdq";
  }
  if (__builtin_cpu_supports("popcnt")) return "popcnt";
  return "scalar";
}

int Usage() {
  std::fprintf(stderr,
               "usage: pprl_e2e --workload <batch_link|online_query|online_churn> "
               "--seed <n> --seconds <s> --trace <0|1> --linkd <path> --workdir <dir> "
               "[--git-sha <sha>] [--source-digest <digest>]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions options;
  std::string workload;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--linkd") {
      options.linkd = value;
    } else if (flag == "--workdir") {
      options.workdir = value;
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else if (flag == "--source-digest") {
      source_digest = value;
    } else {
      return Usage();
    }
  }
  if (workload.empty() || !have_seed || options.seconds <= 0 || options.workdir.empty() ||
      options.linkd.empty()) {
    return Usage();
  }
  const size_t nproc = std::max(1u, std::thread::hardware_concurrency());
  options.threads = std::min<size_t>(4, nproc);

  WorkloadResult result;
  try {
    if (workload == "batch_link") {
      result = RunBatchLink(options);
    } else if (workload == "online_query") {
      result = RunOnlineQuery(options);
    } else if (workload == "online_churn") {
      result = RunOnlineChurn(options);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pprl_e2e: %s failed: %s\n", workload.c_str(), e.what());
    return 1;
  }
  for (const std::string& error : result.errors) {
    std::fprintf(stderr, "pprl_e2e: check failed: %s\n", error.c_str());
  }

  std::string header = "{\"header\": {";
  header += "\"workload\": " + JsonString(workload);
  header += ", \"seed\": " + std::to_string(options.seed);
  header += ", \"seconds\": " + JsonNumber(options.seconds);
  header += ", \"trace\": " + std::string(options.trace ? "1" : "0");
  header += ", \"nproc\": " + std::to_string(nproc);
  header += ", \"threads\": " + std::to_string(options.threads);
  header += ", \"cpu\": " + JsonString(CpuModel());
  header += ", \"isa\": {\"avx2\": " +
            std::string(__builtin_cpu_supports("avx2") ? "true" : "false") +
            ", \"avx512f\": " + (__builtin_cpu_supports("avx512f") ? "true" : "false") +
            ", \"avx512vpopcntdq\": " +
            (__builtin_cpu_supports("avx512vpopcntdq") ? "true" : "false") +
            ", \"popcnt\": " + (__builtin_cpu_supports("popcnt") ? "true" : "false") +
            ", \"compare_kernel\": " + JsonString(KernelPath()) + "}";
  header += ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE);
  header += ", \"git_sha\": " + JsonString(git_sha);
  header += ", \"source_digest\": " + JsonString(source_digest);
  header += ", \"sizes\": {";
  for (size_t i = 0; i < result.sizes.size(); ++i) {
    header += (i ? ", " : "") + JsonString(result.sizes[i].first) + ": " +
              JsonString(result.sizes[i].second);
  }
  header += "}, \"samples\": {";
  for (size_t i = 0; i < result.samples.size(); ++i) {
    const std::vector<double>& v = result.samples[i].second;
    const Quartiles q = ComputeQuartiles(v);
    const double min = v.empty() ? 0 : *std::min_element(v.begin(), v.end());
    const double max = v.empty() ? 0 : *std::max_element(v.begin(), v.end());
    header += (i ? ", " : "") + JsonString(result.samples[i].first) +
              ": {\"n\": " + std::to_string(v.size()) +
              ", \"min\": " + JsonNumber(min) +
              ", \"q1\": " + JsonNumber(q.q1) + ", \"median\": " + JsonNumber(q.q2) +
              ", \"q3\": " + JsonNumber(q.q3) +
              ", \"max\": " + JsonNumber(max) +
              "}";
  }
  header += "}}}";
  std::printf("%s\n", header.c_str());

  std::string line = "{\"correct\": ";
  line += result.failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(std::max<uint64_t>(1, result.attempted));
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    line += (i ? ", " : "") + JsonString(m.name) +
            ": {\"value\": " + JsonNumber(m.value) + ", \"unit\": " + JsonString(m.unit) +
            "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return 0;
}
