#include "inputs.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <thread>
#include <vector>

#include "datagen/generator.h"
#include "encoding/bloom_filter.h"
#include "pipeline/pipeline.h"

namespace perfbench {

Scenario MakeScenario(size_t n, uint64_t seed) {
  pprl::GeneratorConfig generator_config;
  generator_config.seed = seed;
  pprl::DataGenerator generator(generator_config);
  pprl::LinkageScenarioConfig scenario_config;
  scenario_config.records_per_database = n;
  scenario_config.overlap = 0.5;
  scenario_config.corruption.mean_corruptions = 1.0;
  auto dbs = generator.GenerateScenario(scenario_config);
  if (!dbs.ok()) throw std::runtime_error(dbs.status().ToString());
  return Scenario{std::move((*dbs)[0]), std::move((*dbs)[1])};
}

namespace {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001b3ull;

void Mix(uint64_t* h, const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    *h ^= bytes[i];
    *h *= kFnvPrime;
  }
}

void MixDatabase(uint64_t* h, const pprl::Database& db) {
  for (const pprl::Record& r : db.records) {
    Mix(h, &r.id, sizeof(r.id));
    Mix(h, &r.entity_id, sizeof(r.entity_id));
    for (const std::string& v : r.values) {
      Mix(h, v.data(), v.size());
      Mix(h, "\x1f", 1);  // field separator, so "ab","c" != "a","bc"
    }
  }
}

}  // namespace

uint64_t ScenarioDigest(const Scenario& scenario) {
  uint64_t h = kFnvOffset;
  MixDatabase(&h, scenario.a);
  Mix(&h, "\x1e", 1);
  MixDatabase(&h, scenario.b);
  return h;
}

pprl::EncodedShard EncodeOwner(const pprl::Database& db, size_t threads) {
  threads = std::max<size_t>(1, std::min(threads, db.size()));
  const pprl::PipelineConfig defaults;
  const pprl::ClkEncoder encoder(defaults.bloom,
                                 pprl::PprlPipeline::DefaultFieldConfigs());
  std::vector<pprl::Database> parts(threads);
  std::vector<std::vector<pprl::BitVector>> encoded(threads);
  std::vector<std::string> errors(threads);
  const size_t per = (db.size() + threads - 1) / threads;
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) {
    const size_t begin = std::min(db.size(), t * per);
    const size_t end = std::min(db.size(), begin + per);
    parts[t].schema = db.schema;
    parts[t].records.assign(db.records.begin() + static_cast<std::ptrdiff_t>(begin),
                            db.records.begin() + static_cast<std::ptrdiff_t>(end));
    workers.emplace_back([&, t] {
      auto filters = encoder.EncodeDatabase(parts[t]);
      if (filters.ok()) {
        encoded[t] = std::move(filters).value();
      } else {
        errors[t] = filters.status().ToString();
      }
    });
  }
  for (std::thread& w : workers) w.join();
  pprl::EncodedDatabase out;
  out.ids.reserve(db.size());
  out.filters.reserve(db.size());
  for (size_t t = 0; t < threads; ++t) {
    if (!errors[t].empty()) throw std::runtime_error("encoding failed: " + errors[t]);
    for (size_t i = 0; i < encoded[t].size(); ++i) {
      out.ids.push_back(parts[t].records[i].id);
      out.filters.push_back(std::move(encoded[t][i]));
    }
  }
  return pprl::ShardFromEncodedDatabase(out);
}

std::string Hex64(uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(value));
  return buf;
}

}  // namespace perfbench
