// qpe_served: the persistent multi-tenant embedding daemon.
//
// Serves plan embeddings over a Unix-domain socket with per-tenant quotas,
// weighted-fair scheduling, admission control under overload, and graceful
// drain on SIGTERM/SIGINT (in-flight work is flushed and the warm cache is
// persisted for the next start). See serve/daemon.h for the architecture
// and DESIGN.md ("Serving daemon") for the wire format.
//
// Quick start (two terminals):
//   ./build/examples/qpe_served --socket=/tmp/qpe.sock --warm-state=/tmp/qpe.warm
//   ./build/examples/qpe_client --socket=/tmp/qpe.sock --plans=32
//
// Flags:
//   --socket=PATH          socket path (default /tmp/qpe_served.sock)
//   --workers=N            encode worker shards (default 2)
//   --seed=N               weight-init seed; restarts must reuse it or the
//                          model fingerprint changes and warm restore is
//                          refused (default 42)
//   --small                small encoder (fast startup; tests/CI)
//   --cache-capacity=N     embedding cache entries (default 4096)
//   --batch-size=N         encode micro-batch size (default 16)
//   --warm-state=PATH      warm-restart snapshot file ("" disables)
//   --snapshot-every=N     also snapshot every N completed requests
//                          (default 32; 0 = only at drain)
//   --drain-deadline=SEC   bound on the drain phase (default 5)
//   --default-rate=R       default tenant quota, plans/sec (default: unlimited)
//   --default-burst=B      default tenant burst, plans (default: unlimited)
//   --default-queue=N      default per-tenant queue bound (default 64)
//   --tenant=NAME:RATE:BURST:WEIGHT[:QUEUE]   per-tenant override
//                          (repeatable; RATE=0 and BURST=0 is a zero-quota
//                          tenant — always shed, retry "never")
// A queue bound (N, QUEUE) must be a whole integer in 1..INT_MAX; anything
// else exits 2 before the socket is created.
//
// Drift sentinel (see DESIGN.md "Drift detection & online adaptation"):
//   --drift                enable the streaming drift sentinel: baseline
//                          sketches are built over a generated corpus at
//                          startup, every served plan is folded into the
//                          sliding window, and v2 responses carry a
//                          stale flag + drift score once drift is declared
//   --drift-window=N       plans per detector window (default 64)
//   --drift-corpus-plans=N baseline corpus size (default 96)
//   --drift-corpus-seed=N  baseline corpus generator seed (default 7)
//   --adapt-dir=PATH       crash-safe self-healing state directory; enables
//                          incremental fine-tuning on DRIFTED ("" = detect
//                          only). A daemon killed mid-adaptation resumes
//                          the round from its checkpoint on the next start.
//   --adapt-epochs=N       fine-tune epochs per round (default 6)
//   --adapt-pairs=N        PPSR pairs built from the drifted slice (default 48)

#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "data/plan_corpus.h"
#include "encoder/structure_encoder.h"
#include "plan/serialize.h"
#include "serve/daemon.h"
#include "serve/warm_state.h"
#include "util/rng.h"

namespace {

bool FlagValue(const char* arg, const char* name, std::string* value) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *value = arg + len + 1;
  return true;
}

// A per-tenant queue bound: the whole string is a decimal integer in
// 1..INT_MAX. A bound below 1 would shed every request of the tenant.
bool ParseQueueBound(const std::string& text, int* bound) {
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (errno != 0 || *end != '\0' || value < 1 || value > INT_MAX) {
    return false;
  }
  *bound = static_cast<int>(value);
  return true;
}

// NAME:RATE:BURST:WEIGHT[:QUEUE]
bool ParseTenantSpec(const std::string& spec, std::string* name,
                     qpe::serve::TenantConfig* config) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (true) {
    const size_t colon = spec.find(':', start);
    parts.push_back(spec.substr(start, colon - start));
    if (colon == std::string::npos) break;
    start = colon + 1;
  }
  if (parts.size() < 4 || parts.size() > 5 || parts[0].empty()) return false;
  *name = parts[0];
  config->rate_plans_per_sec = std::atof(parts[1].c_str());
  config->burst_plans = std::atof(parts[2].c_str());
  config->weight = std::atof(parts[3].c_str());
  if (parts.size() == 5 &&
      !ParseQueueBound(parts[4], &config->max_queued_requests)) {
    return false;
  }
  return config->weight > 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path = "/tmp/qpe_served.sock";
  uint64_t seed = 42;
  bool small = false;
  int drift_corpus_plans = 96;
  uint64_t drift_corpus_seed = 7;
  qpe::serve::ServingDaemonConfig config;
  config.install_signal_handlers = true;
  config.snapshot_every_requests = 32;

  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (FlagValue(argv[i], "--socket", &v)) {
      socket_path = v;
    } else if (FlagValue(argv[i], "--workers", &v)) {
      config.workers = std::atoi(v.c_str());
    } else if (FlagValue(argv[i], "--seed", &v)) {
      seed = static_cast<uint64_t>(std::atoll(v.c_str()));
    } else if (std::strcmp(argv[i], "--small") == 0) {
      small = true;
    } else if (FlagValue(argv[i], "--cache-capacity", &v)) {
      config.service.cache.capacity = static_cast<size_t>(std::atoll(v.c_str()));
    } else if (FlagValue(argv[i], "--batch-size", &v)) {
      config.service.batch_size = std::atoi(v.c_str());
    } else if (FlagValue(argv[i], "--warm-state", &v)) {
      config.warm_state_path = v;
    } else if (FlagValue(argv[i], "--snapshot-every", &v)) {
      config.snapshot_every_requests =
          static_cast<uint64_t>(std::atoll(v.c_str()));
    } else if (FlagValue(argv[i], "--drain-deadline", &v)) {
      config.drain_deadline_seconds = std::atof(v.c_str());
    } else if (FlagValue(argv[i], "--default-rate", &v)) {
      config.admission.default_tenant.rate_plans_per_sec = std::atof(v.c_str());
    } else if (FlagValue(argv[i], "--default-burst", &v)) {
      config.admission.default_tenant.burst_plans = std::atof(v.c_str());
    } else if (FlagValue(argv[i], "--default-queue", &v)) {
      if (!ParseQueueBound(
              v, &config.admission.default_tenant.max_queued_requests)) {
        std::fprintf(stderr,
                     "qpe_served: bad --default-queue '%s' (want an integer "
                     "in 1..%d)\n",
                     v.c_str(), INT_MAX);
        return 2;
      }
    } else if (std::strcmp(argv[i], "--drift") == 0) {
      config.enable_drift = true;
    } else if (FlagValue(argv[i], "--drift-window", &v)) {
      config.drift_sentinel.detector.window_size = std::atoi(v.c_str());
    } else if (FlagValue(argv[i], "--drift-corpus-plans", &v)) {
      drift_corpus_plans = std::atoi(v.c_str());
    } else if (FlagValue(argv[i], "--drift-corpus-seed", &v)) {
      drift_corpus_seed = static_cast<uint64_t>(std::atoll(v.c_str()));
    } else if (FlagValue(argv[i], "--adapt-dir", &v)) {
      config.adaptation.dir = v;
    } else if (FlagValue(argv[i], "--adapt-epochs", &v)) {
      config.adaptation.epochs = std::atoi(v.c_str());
    } else if (FlagValue(argv[i], "--adapt-pairs", &v)) {
      config.adaptation.pairs = std::atoi(v.c_str());
    } else if (FlagValue(argv[i], "--tenant", &v)) {
      std::string name;
      qpe::serve::TenantConfig tenant;
      if (!ParseTenantSpec(v, &name, &tenant)) {
        std::fprintf(stderr,
                     "qpe_served: bad --tenant spec '%s' "
                     "(want NAME:RATE:BURST:WEIGHT[:QUEUE], WEIGHT > 0, "
                     "QUEUE an integer in 1..%d)\n",
                     v.c_str(), INT_MAX);
        return 2;
      }
      config.admission.tenants[name] = tenant;
    } else {
      std::fprintf(stderr, "qpe_served: unknown flag '%s'\n", argv[i]);
      return 2;
    }
  }
  config.socket_path = socket_path;

  // Deterministic weight init: the same --seed always produces the same
  // model, so the fingerprint-gated warm restore works across restarts.
  qpe::encoder::StructureEncoderConfig encoder_config;
  if (small) {
    encoder_config.level1_dim = 12;
    encoder_config.level2_dim = 6;
    encoder_config.level3_dim = 6;
    encoder_config.num_heads = 2;
    encoder_config.ff_dim = 32;
    encoder_config.num_layers = 2;
    encoder_config.max_len = 128;
  }
  encoder_config.dropout = 0.0f;
  qpe::util::Rng rng(seed);
  qpe::encoder::TransformerPlanEncoder encoder(encoder_config, &rng);
  config.model_fingerprint = qpe::serve::ModelFingerprint(encoder);

  if (config.enable_drift) {
    // The baseline corpus stands in for "the plans this model was trained
    // on": deterministic given the seed, so restarts rebuild the same
    // baseline sketches.
    qpe::data::CorpusOptions corpus_options;
    corpus_options.min_nodes = 4;
    corpus_options.max_nodes = 24;
    qpe::data::RandomPlanGenerator generator(qpe::util::Rng(drift_corpus_seed),
                                             corpus_options);
    config.drift_corpus.reserve(static_cast<size_t>(drift_corpus_plans));
    for (int i = 0; i < drift_corpus_plans; ++i) {
      config.drift_corpus.push_back(
          qpe::plan::SerializePlanNode(*generator.Generate()));
    }
  }

  qpe::serve::ServingDaemon daemon(&encoder, config);
  if (qpe::util::Status s = daemon.Start(); !s.ok()) {
    std::fprintf(stderr, "qpe_served: start failed: %s\n",
                 s.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr,
               "qpe_served: listening on %s (workers=%d, fingerprint=%llu)\n",
               socket_path.c_str(), config.workers,
               static_cast<unsigned long long>(config.model_fingerprint));
  std::fflush(stderr);

  daemon.Join();  // returns after SIGTERM/SIGINT-triggered drain completes
  std::fprintf(stderr, "qpe_served: drained, exiting\n");
  return 0;
}
