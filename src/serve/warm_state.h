#ifndef QPE_SERVE_WARM_STATE_H_
#define QPE_SERVE_WARM_STATE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "nn/module.h"
#include "util/status.h"

namespace qpe::serve {

// Warm-restart state for the serving daemon: the embedding cache's
// contents plus the fingerprint of the model that produced them, persisted
// as a framed, crash-safe util/durable_file.h artifact so a SIGKILL at any
// moment leaves either the previous snapshot or the new one, never a torn
// file. A restarted daemon restores the snapshot and serves its first
// requests from a warm cache instead of re-encoding the entire working
// set.
//
// The model fingerprint gates restore: cached embeddings are only valid
// for the exact weights that produced them, so a snapshot whose
// fingerprint differs from the serving model's is refused
// (kFailedPrecondition) and the daemon starts cold. The same weights give
// different bits under another kernel arithmetic (SIMD level or kernel revision), so
// SaveWarmState also stamps the active nn::simd::ArithmeticStamp(), and a
// snapshot whose stamp differs from the loading process's is refused the
// same way. The stamp is the snapshot's alone: ModelFingerprint stays a
// function of the weights, as the adaptation manifests use it.
//
// Frame: magic "QPEW", version 2; fault sites "warm_state.*". Payload:
//   model_fingerprint u64 | arithmetic u32 | dim u32
//   | entry_count u32 | entry_count x { key u64 | dim f32 }

struct WarmState {
  uint64_t model_fingerprint = 0;
  uint32_t dim = 0;
  // Cache entries in EmbeddingCache::Snapshot() order (LRU-first per
  // shard); every embedding has exactly `dim` floats.
  std::vector<std::pair<uint64_t, std::vector<float>>> entries;
};

util::Status SaveWarmState(const std::string& path, const WarmState& state);

// Transactional load: any error (the util::ReadFramedFile contract for the
// frame, then truncation or ragged embedding rows in the payload) returns a
// descriptive Status and leaves *state untouched. `expected_fingerprint`
// != 0 additionally requires the snapshot to match the serving model.
util::Status LoadWarmState(const std::string& path,
                           uint64_t expected_fingerprint, WarmState* state);

// CRC32 over every named parameter buffer, widened with the parameter
// count: two modules fingerprint equal iff their weights are bit-equal.
// The same function the crash-resume smoke test applies to training runs,
// exposed here so the daemon can stamp snapshots.
uint64_t ModelFingerprint(const nn::Module& module);

}  // namespace qpe::serve

#endif  // QPE_SERVE_WARM_STATE_H_
