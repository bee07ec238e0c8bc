#ifndef QPE_NN_SERIALIZE_H_
#define QPE_NN_SERIALIZE_H_

#include <iostream>
#include <string>
#include <vector>

#include "nn/module.h"
#include "util/status.h"

namespace qpe::nn {

// Binary checkpointing of module parameters, keyed by the stable dotted
// parameter names. Loading requires an identically-shaped architecture.
// This is what carries pretrained encoder weights into finetuning runs.
//
// Loading is *transactional*: every tensor is staged and validated against
// the destination module first, and values are committed only if the whole
// stream parses — on any failure the module is left byte-identical to its
// pre-call state. Status messages carry the failing tensor name and byte
// offset so a corrupt file is diagnosable.
//
// SaveModuleToFileStatus writes through util::WriteFileAtomic (fault sites
// "module.save.*"): a failed or interrupted save leaves the previous file
// byte-identical. The bytes are unframed ("QPE1" magic, no CRC).

void SaveModule(const Module& module, std::ostream& os);

util::Status LoadModuleStatus(Module* module, std::istream& is);
util::Status SaveModuleToFileStatus(const Module& module,
                                    const std::string& path);
util::Status LoadModuleFromFileStatus(Module* module, const std::string& path);

// Legacy bool wrappers (same transactional semantics, diagnostics dropped).
bool LoadModule(Module* module, std::istream& is);
bool SaveModuleToFile(const Module& module, const std::string& path);
bool LoadModuleFromFile(Module* module, const std::string& path);

// In-memory weight transfer between two identically-shaped modules (e.g.
// cloning a pretrained encoder before finetuning it on a new domain).
bool CopyParameters(const Module& source, Module* dest);

namespace internal {

// The two halves of transactional loading, exposed so composite formats
// (nn/checkpoint.h bundles module + optimizer + RNG state) can stage the
// module section, keep validating the rest of their payload, and commit
// everything only once nothing can fail anymore.
struct StagedModule {
  std::vector<std::vector<float>> values;  // one buffer per named parameter
};

// Parses and validates a module section against `module` without touching
// its storage.
util::Status StageModule(Module* module, std::istream& is,
                         StagedModule* staged);
// Infallible: writes staged values into the module's parameters.
void CommitModule(Module* module, StagedModule&& staged);

}  // namespace internal

}  // namespace qpe::nn

#endif  // QPE_NN_SERIALIZE_H_
