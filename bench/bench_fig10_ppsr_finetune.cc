// Reproduces paper Figure 10: MAE of predicted vs true Smatch score on the
// plan-pair similarity regression task, per target domain (TPC-H, TPC-DS,
// SPATIAL), for:
//   from scratch:   FNN, LSTM, Transformer
//   pretrained:     Sparse-AE (finetuned), LSTM-PPSR (finetuned),
//                   Transformer-PPSR-fixed (frozen encoder),
//                   Transformer-PPSR (finetuned)
// Shape to match: Transformer-PPSR (finetuned) best on TPC-H/TPC-DS; the
// fixed-feature variant much worse; pretraining helps little on SPATIAL.

#include <iostream>
#include <memory>

#include "bench_common.h"
#include "data/datasets.h"
#include "encoder/ppsr.h"
#include "nn/serialize.h"

namespace {

using qpe::encoder::FnnPlanEncoder;
using qpe::encoder::LstmPlanEncoder;
using qpe::encoder::PlanSequenceEncoder;
using qpe::encoder::PpsrModel;
using qpe::encoder::SparseAutoencoder;
using qpe::encoder::StructureEncoderConfig;
using qpe::encoder::TransformerPlanEncoder;

StructureEncoderConfig EncoderConfig() {
  StructureEncoderConfig config;
  config.dropout = 0.0f;
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  const int corpus_pairs = qpe::bench::FlagInt(argc, argv, "--corpus-pairs", 600);
  const int domain_pairs = qpe::bench::FlagInt(argc, argv, "--domain-pairs", 300);
  const int pretrain_epochs = qpe::bench::FlagInt(argc, argv, "--pretrain-epochs", 3);
  const int finetune_epochs = qpe::bench::FlagInt(argc, argv, "--finetune-epochs", 3);

  std::cout << "Figure 10: PPSR finetuning MAE per domain ("
            << corpus_pairs << " corpus pairs, " << domain_pairs
            << " pairs per domain)\n\n";

  // Pretraining corpus (crowdsourced stand-in).
  qpe::data::PairDatasetOptions corpus_options;
  corpus_options.num_pairs = corpus_pairs;
  corpus_options.corpus.max_nodes = 40;
  const auto corpus = qpe::data::BuildCorpusPairDataset(corpus_options);

  // Target domains.
  qpe::simdb::TpchWorkload tpch(0.5);
  qpe::simdb::TpcdsWorkload tpcds(0.5);
  qpe::simdb::SpatialWorkload spatial(0.1);
  struct Domain {
    const char* name;
    qpe::data::PlanPairDataset pairs;
  };
  auto domain_pairsets = [&](const qpe::simdb::BenchmarkWorkload& w,
                             uint64_t seed) {
    qpe::data::PairDatasetOptions options;
    options.num_pairs = domain_pairs;
    options.seed = seed;
    return qpe::data::BuildWorkloadPairDataset(w, options);
  };
  std::vector<Domain> domains;
  domains.push_back({"TPC-H", domain_pairsets(tpch, 61)});
  domains.push_back({"TPC-DS", domain_pairsets(tpcds, 62)});
  domains.push_back({"SPATIAL", domain_pairsets(spatial, 63)});

  // Model constructors.
  qpe::util::Rng rng(19);
  auto make_transformer = [&]() {
    return std::make_unique<TransformerPlanEncoder>(EncoderConfig(), &rng);
  };
  auto make_lstm = [&]() {
    return std::make_unique<LstmPlanEncoder>(EncoderConfig(), &rng);
  };
  auto make_fnn = [&]() { return std::make_unique<FnnPlanEncoder>(64, 48, &rng); };

  qpe::util::TablePrinter table(
      {"Method", "TPC-H MAE", "TPC-DS MAE", "SPATIAL MAE"});

  // Scratch rows: train on the domain only.
  auto scratch_row = [&](const char* name, auto make_encoder) {
    std::vector<std::string> row = {name};
    for (const Domain& domain : domains) {
      PpsrModel model(make_encoder(), &rng);
      qpe::encoder::PpsrTrainOptions options;
      options.epochs = finetune_epochs + pretrain_epochs;  // equal budget
      qpe::encoder::TrainPpsr(&model, domain.pairs.train, options);
      row.push_back(qpe::util::TablePrinter::Num(
          qpe::encoder::EvaluatePpsrMae(model, domain.pairs.test), 4));
    }
    table.AddRow(row);
  };
  scratch_row("FNN (scratch)", make_fnn);
  scratch_row("LSTM (scratch)", make_lstm);
  scratch_row("Transformer (scratch)", make_transformer);

  // Pretrained rows: pretrain once on the corpus, then adapt per domain.
  auto pretrained_row = [&](const char* name, auto make_encoder,
                            bool freeze_encoder) {
    // Pretrain.
    PpsrModel pretrained(make_encoder(), &rng);
    qpe::encoder::PpsrTrainOptions pretrain_options;
    pretrain_options.epochs = pretrain_epochs;
    qpe::encoder::TrainPpsr(&pretrained, corpus.train, pretrain_options);
    std::vector<std::string> row = {name};
    for (const Domain& domain : domains) {
      PpsrModel finetuned(make_encoder(), &rng);
      qpe::nn::CopyParameters(pretrained, &finetuned);
      qpe::encoder::PpsrTrainOptions finetune_options;
      finetune_options.epochs = finetune_epochs;
      finetune_options.freeze_encoder = freeze_encoder;
      qpe::encoder::TrainPpsr(&finetuned, domain.pairs.train, finetune_options);
      row.push_back(qpe::util::TablePrinter::Num(
          qpe::encoder::EvaluatePpsrMae(finetuned, domain.pairs.test), 4));
    }
    table.AddRow(row);
  };

  // Sparse-AE: self-supervised pretraining on corpus plans, then the match
  // head is trained on the domain (encoder finetuned as well).
  {
    std::vector<const qpe::plan::PlanNode*> corpus_plans;
    for (const auto& pair : corpus.train) {
      corpus_plans.push_back(pair.left.get());
    }
    auto autoencoder = std::make_unique<SparseAutoencoder>(48, &rng);
    const qpe::util::Status status = qpe::encoder::PretrainSparseAutoencoder(
        autoencoder.get(), corpus_plans, pretrain_epochs * 2, 3e-3f, 5);
    if (!status.ok()) return 1;
    SparseAutoencoder* raw = autoencoder.get();
    PpsrModel model(std::move(autoencoder), &rng);
    (void)raw;
    std::vector<std::string> row = {"Sparse-AE (pretrained)"};
    for (const Domain& domain : domains) {
      PpsrModel finetuned(std::make_unique<SparseAutoencoder>(48, &rng), &rng);
      qpe::nn::CopyParameters(model, &finetuned);
      qpe::encoder::PpsrTrainOptions options;
      options.epochs = finetune_epochs;
      qpe::encoder::TrainPpsr(&finetuned, domain.pairs.train, options);
      row.push_back(qpe::util::TablePrinter::Num(
          qpe::encoder::EvaluatePpsrMae(finetuned, domain.pairs.test), 4));
    }
    table.AddRow(row);
  }

  pretrained_row("LSTM-PPSR (pretrained)", make_lstm, false);
  pretrained_row("Transformer-PPSR-fixed", make_transformer, true);
  pretrained_row("Transformer-PPSR", make_transformer, false);

  table.Print(std::cout);
  std::cout << "\nPaper shape: Transformer-PPSR lowest MAE on TPC-H/TPC-DS; "
               "-fixed much worse than finetuned; on SPATIAL the scratch "
               "LSTM/Transformer are already competitive.\n";
  return 0;
}
