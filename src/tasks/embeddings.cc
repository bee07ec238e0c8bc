#include "tasks/embeddings.h"

#include "data/features.h"

namespace qpe::tasks {

EmbeddingFeaturizer::EmbeddingFeaturizer(Config config)
    : config_(std::move(config)) {}

int EmbeddingFeaturizer::FeatureDim() const {
  int dim = 0;
  if (config_.structure != nullptr) dim += config_.structure->output_dim();
  for (const encoder::PerfEncoderBase* perf : config_.performance) {
    if (perf != nullptr) {
      dim += perf->config().embed_dim;
      if (config_.include_group_predictions) dim += 3;
    }
  }
  if (config_.include_db_features) dim += config::DbConfig::FeatureDim();
  return dim;
}

std::vector<float> EmbeddingFeaturizer::Featurize(
    const simdb::ExecutedQuery& record) const {
  return FeaturizeImpl(record, nullptr);
}

std::vector<float> EmbeddingFeaturizer::FeaturizeImpl(
    const simdb::ExecutedQuery& record, const nn::Tensor* structure) const {
  std::vector<float> features;
  features.reserve(FeatureDim());
  const plan::PlanNode& root = *record.query.root;

  if (config_.structure != nullptr) {
    const nn::Tensor s = structure != nullptr
                             ? *structure
                             : config_.structure->Encode(root, nullptr);
    for (float v : s.value()) features.push_back(v);
  }

  for (int g = 0; g < 4; ++g) {
    const encoder::PerfEncoderBase* perf = config_.performance[g];
    if (perf == nullptr) continue;
    // Collect this group's nodes and mean-pool their embeddings.
    std::vector<data::OperatorSample> nodes;
    const std::vector<double> db_features = record.db_config.ToFeatures();
    root.Visit([&](const plan::PlanNode& node) {
      if (static_cast<int>(plan::GroupOf(node.type())) != g) return;
      data::OperatorSample sample;
      sample.node_features = data::NodeFeatures(node);
      sample.meta_features = data::NodeMetaFeatures(node, *config_.catalog);
      sample.db_features = db_features;
      nodes.push_back(std::move(sample));
    });
    const int embed_dim = perf->config().embed_dim;
    const int extra = config_.include_group_predictions ? 3 : 0;
    if (nodes.empty()) {
      features.insert(features.end(), embed_dim + extra, 0.0f);
      continue;
    }
    std::vector<int> all(nodes.size());
    for (size_t i = 0; i < nodes.size(); ++i) all[i] = static_cast<int>(i);
    const encoder::PerfBatch batch = encoder::MakePerfBatch(nodes, all);
    const nn::Tensor embedded = perf->Embed(batch.node, batch.meta, batch.db);
    const float* ev = embedded.value().data();  // [rows, embed_dim]
    for (int c = 0; c < embed_dim; ++c) {
      float mean = 0;
      for (int r = 0; r < embedded.rows(); ++r) {
        mean += ev[static_cast<size_t>(r) * embed_dim + c];
      }
      features.push_back(mean / static_cast<float>(embedded.rows()));
    }
    if (config_.include_group_predictions) {
      // Cumulative sample: summed node features, whole-plan meta features.
      std::vector<data::OperatorSample> cumulative(1);
      std::vector<std::vector<double>> node_rows;
      node_rows.reserve(nodes.size());
      for (const auto& sample : nodes) node_rows.push_back(sample.node_features);
      cumulative[0].node_features = data::SumFeatures(node_rows);
      cumulative[0].meta_features =
          data::NodeMetaFeatures(root, *config_.catalog);
      cumulative[0].db_features = db_features;
      const encoder::PerfBatch cbatch = encoder::MakePerfBatch(cumulative, {0});
      const nn::Tensor prediction =
          perf->PredictLabels(perf->Embed(cbatch.node, cbatch.meta, cbatch.db));
      for (int c = 0; c < 3; ++c) features.push_back(prediction.at(0, c));
    }
  }

  if (config_.include_db_features) {
    for (double v : record.db_config.ToFeatures()) {
      features.push_back(static_cast<float>(v));
    }
  }
  return features;
}

std::vector<std::vector<float>> EmbeddingFeaturizer::FeaturizeAll(
    const std::vector<simdb::ExecutedQuery>& records) const {
  // The encoders are fixed feature extractors: no graphs. Batch the
  // structural encodes across the whole dataset into one packed forward
  // (same bits as per-record Encode).
  nn::NoGradGuard no_grad;
  std::vector<nn::Tensor> structure;
  if (config_.structure != nullptr) {
    std::vector<const plan::PlanNode*> roots;
    roots.reserve(records.size());
    for (const simdb::ExecutedQuery& record : records) {
      roots.push_back(record.query.root.get());
    }
    structure = config_.structure->EncodeBatch(roots, nullptr);
  }
  std::vector<std::vector<float>> rows;
  rows.reserve(records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    rows.push_back(FeaturizeImpl(
        records[i], structure.empty() ? nullptr : &structure[i]));
  }
  return rows;
}

}  // namespace qpe::tasks
