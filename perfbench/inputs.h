#ifndef PPRL_PERFBENCH_INPUTS_H_
#define PPRL_PERFBENCH_INPUTS_H_

// Seeded workload inputs. Everything a workload feeds the program comes
// from here, derived from the --seed argument alone: the same seed gives
// byte-identical databases (and therefore identical encodings), another
// seed gives different ones.

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/record.h"
#include "encoding/clk_io.h"

namespace perfbench {

/// Two owners' databases from the toolkit's own generator: `n` records
/// each, 50% shared entities, about one corruption per duplicate.
struct Scenario {
  pprl::Database a;
  pprl::Database b;
};

Scenario MakeScenario(size_t n, uint64_t seed);

/// FNV-1a-64 over every id, entity id and value of both databases.
uint64_t ScenarioDigest(const Scenario& scenario);

/// Owner-side CLK encoding with the pipeline's default configuration
/// (1000-bit filters, PprlPipeline::DefaultFieldConfigs), split over
/// `threads` threads; row i is record i, with the record's id. An owner
/// encodes before it talks to the daemon, so this is input preparation,
/// not part of any timed phase.
pprl::EncodedShard EncodeOwner(const pprl::Database& db, size_t threads);

std::string Hex64(uint64_t value);

}  // namespace perfbench

#endif  // PPRL_PERFBENCH_INPUTS_H_
