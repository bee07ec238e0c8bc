#include "report.h"

#include <cmath>
#include <cstdio>

namespace qpebench {

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"throughput_plans_per_sec", "plans/s"},
      {"cpu_us_per_plan", "us"},
      {"peak_rss_mb", "MB"},
  };
  return defs;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> defs = {
      {"latency.p50_ms", "ms"},
      {"latency.p99_ms", "ms"},
      {"serve.wire.parse_request_us", "us"},
      {"serve.wire.encode_response_us", "us"},
      {"serve.wire.bytes_per_plan", "bytes"},
      {"util.socket.ping_rtt_us", "us"},
      {"serve.admission.offer_us", "us"},
      {"serve.admission.pop_us", "us"},
      {"serve.admission.queue_depth_max", "count"},
      {"serve.admission.shed", "count"},
      {"serve.admission.fairness", "ratio"},
      {"plan.parse_us_per_plan", "us"},
      {"plan.fingerprint_us_per_plan", "us"},
      {"plan.linearize_us_per_plan", "us"},
      {"serve.cache.lookup_us", "us"},
      {"serve.cache.insert_us", "us"},
      {"serve.cache.evictions", "count"},
      {"serve.cache.hit_rate", "ratio"},
      {"serve.cache.lookups", "count"},
      {"serve.service.encode_all_us_per_plan", "us"},
      {"serve.service.self_us_per_plan", "us"},
      {"serve.service.stats_ms", "ms"},
      {"serve.response.assemble_us", "us"},
      {"encoder.pack_us_per_plan", "us"},
      {"encoder.encode_batch_us_per_plan", "us"},
      {"encoder.tokens_per_plan", "count"},
      {"encoder.rows_per_batch", "count"},
      {"nn.gemm_us_per_batch", "us"},
      {"nn.gemm_gflops", "GFLOP/s"},
      {"nn.gemm_mflop_per_batch", "MFLOP"},
      {"nn.gemm_mbytes_per_batch", "MB"},
      {"nn.attention_us_per_batch", "us"},
      {"nn.attention_mflop_per_batch", "MFLOP"},
      {"nn.layer_norm_us_per_batch", "us"},
      {"nn.embed_gather_us_per_batch", "us"},
      {"drift.observe_us_per_plan", "us"},
      {"drift.daemon_observe_us_per_plan", "us"},
      {"serve.low_load_p50_us", "us"},
      {"serve.stage_sum_us", "us"},
      {"serve.unattributed_us", "us"},
      {"loadgen.lag_p99_ms", "ms"},
      {"share.serve_pct", "%"},
      {"share.plan_pct", "%"},
      {"share.encoder_nn_pct", "%"},
      {"share.drift_pct", "%"},
      {"share.glue_pct", "%"},
      {"train.forward_ms_per_batch", "ms"},
      {"train.backward_reduce_ms_per_batch", "ms"},
      {"train.clip_ms_per_batch", "ms"},
      {"train.adam_ms_per_batch", "ms"},
      {"train.step_ms_per_batch", "ms"},
      {"train.nonfinite_losses", "count"},
      {"train.pairs_per_sec", "pairs/s"},
      {"train.eval_mae", "abs"},
      {"train.untrained_mae", "abs"},
      {"trace.overhead_pct", "%"},
      {"trace.spans", "count"},
  };
  return defs;
}

std::string FormatNumber(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

void Report::Context(const std::string& key, const std::string& value) {
  context_.emplace_back(key, value);
}

void Report::Context(const std::string& key, double value) {
  context_.emplace_back(key, FormatNumber(value));
}

void Report::Set(const std::string& name, double value) {
  metrics_[name] = value;
}

void Report::Extra(const std::string& name, double value,
                   const std::string& unit) {
  std::string line = "extra ";
  line.append(name).append(" = ").append(FormatNumber(value));
  line.append(" ").append(unit);
  lines_.push_back(std::move(line));
}

void Report::Note(const std::string& line) { lines_.push_back(line); }

void Report::Check(bool ok, const std::string& what) {
  std::string line = ok ? "check ok   " : "check FAIL ";
  line.append(what);
  lines_.push_back(std::move(line));
  if (!ok) ++check_failures_;
}

bool Report::Print(bool trace, std::ostream& out) const {
  for (const auto& [key, value] : context_) {
    out << "context " << key << " = " << value << "\n";
  }
  for (const std::string& line : lines_) out << line << "\n";
  const std::vector<MetricDef>& defs =
      trace ? PerLayerMetrics() : EndToEndMetrics();
  // A non-finite value cannot be written as JSON; it reads 0 and marks the
  // run incorrect.
  bool finite = true;
  std::string metrics_json;
  for (size_t i = 0; i < defs.size(); ++i) {
    const auto it = metrics_.find(defs[i].name);
    double value = it == metrics_.end() ? 0.0 : it->second;
    if (!std::isfinite(value)) {
      finite = false;
      value = 0;
    }
    out << "metric " << defs[i].name << " = " << FormatNumber(value) << " "
        << defs[i].unit << "\n";
    if (i > 0) metrics_json.append(", ");
    metrics_json.append("\"").append(defs[i].name).append("\": {\"value\": ");
    metrics_json.append(FormatNumber(value)).append(", \"unit\": \"");
    metrics_json.append(defs[i].unit).append("\"}");
  }
  out << "{\"correct\": " << (correct() && finite ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {" << metrics_json << "}}" << std::endl;
  return finite;
}

}  // namespace qpebench
