#ifndef QPE_NN_SERIALIZE_H_
#define QPE_NN_SERIALIZE_H_

#include <string>
#include <string_view>
#include <vector>

#include "nn/module.h"
#include "util/bytes.h"
#include "util/status.h"

namespace qpe::nn {

// Binary checkpointing of module parameters, keyed by the stable dotted
// parameter names. Loading requires an identically-shaped architecture.
// This is what carries pretrained encoder weights into finetuning runs.
//
// The bytes are unframed ("QPE1" magic, no CRC), written with the
// util/bytes.h codec:
//
//   magic u32 | count u32 | count x { name (u32 length + bytes)
//                                     | rows u32 | cols u32 | rows*cols f32 }
//
// Loading is *transactional*: every tensor is staged and validated against
// the destination module first, and values are committed only if the whole
// input parses — on any failure the module is left byte-identical to its
// pre-call state. Truncation is kDataLoss naming the tensor, the field and
// the byte offset (util::PayloadReader); trailing bytes are kDataLoss too.
//
// SaveModuleToFileStatus writes through util::WriteFileAtomic (fault sites
// "module.save.*"): a failed or interrupted save leaves the previous file
// byte-identical. LoadModuleFromFileStatus fires "module.load.open" before
// reading the file and "module.load.read" before parsing it.

// Appends the module's bytes to *out.
void SaveModule(const Module& module, std::string* out);

util::Status LoadModuleStatus(Module* module, std::string_view bytes);
util::Status SaveModuleToFileStatus(const Module& module,
                                    const std::string& path);
util::Status LoadModuleFromFileStatus(Module* module, const std::string& path);

// In-memory weight transfer between two identically-shaped modules (e.g.
// cloning a pretrained encoder before finetuning it on a new domain).
bool CopyParameters(const Module& source, Module* dest);

namespace internal {

// The two halves of transactional loading, exposed so composite loads
// (nn/checkpoint.h bundles module + optimizer + RNG state; EncoderSuite
// loads five module files) can stage every module, keep validating the
// rest of their input, and commit everything only once nothing can fail
// anymore.
struct StagedModule {
  std::vector<std::vector<float>> values;  // one buffer per named parameter
};

// Parses and validates one module's bytes at the reader's position against
// `module` without touching its storage; leaves the reader after the last
// tensor.
util::Status StageModule(Module* module, util::PayloadReader& reader,
                         StagedModule* staged);
// StageModule over a whole module file (fault sites "module.load.*").
util::Status StageModuleFile(Module* module, const std::string& path,
                             StagedModule* staged);
// Infallible: writes staged values into the module's parameters.
void CommitModule(Module* module, StagedModule&& staged);

}  // namespace internal

}  // namespace qpe::nn

#endif  // QPE_NN_SERIALIZE_H_
