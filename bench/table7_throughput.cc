// Table 7 reproduction: computational efficiency (pairs/second) of every
// model in training and inference on a fixed workload, plus google-benchmark
// microbenchmarks of the per-pair inference forward pass.
//
// Flags (consumed before google-benchmark's own):
//   --serve-obs PORT   start the observability server on PORT, so /metrics
//                      can be scraped while the bench runs
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench/harness.h"
#include "tensor/arena.h"
#include "util/observability.h"

namespace {

using namespace emba;

struct Throughput {
  double train = 0.0;
  double inference = 0.0;
};

const std::vector<std::string>& Models() {
  static const std::vector<std::string> kModels = {
      "jointbert", "emba",    "emba_ft", "emba_sb",
      "emba_db",   "bert",    "roberta", "ditto"};
  return kModels;
}

core::EncodedDataset* g_plain = nullptr;
core::EncodedDataset* g_ditto = nullptr;
BenchScale g_scale;

const core::EncodedDataset& DatasetFor(const std::string& model) {
  return core::ModelUsesDittoInput(model) ? *g_ditto : *g_plain;
}

std::unique_ptr<core::EmModel> MakeModel(const std::string& name) {
  // Models keep a raw pointer to their Rng (dropout), so each one gets an Rng
  // that outlives it; every model still seeds from a fresh Rng(99).
  static std::vector<std::unique_ptr<Rng>> rngs;
  rngs.push_back(std::make_unique<Rng>(99));
  const auto& dataset = DatasetFor(name);
  auto model = core::CreateModel(name, bench::BudgetFromScale(g_scale),
                                 dataset.wordpiece->vocab().size(),
                                 dataset.num_id_classes, rngs.back().get());
  EMBA_CHECK(model.ok());
  return std::move(*model);
}

// google-benchmark microbenchmark: single-pair inference forward pass.
void BM_Inference(benchmark::State& state, const std::string& model_name) {
  auto model = MakeModel(model_name);
  model->SetTraining(false);
  const auto& dataset = DatasetFor(model_name);
  // The serving configuration: pooled inference Vars plus the per-thread
  // activation arena, reset between samples like the scoring loops do.
  ag::InferenceModeGuard inference;
  ActivationArena::Scope arena;
  size_t i = 0;
  for (auto _ : state) {
    const auto& sample = dataset.test[i % dataset.test.size()];
    {
      core::ModelOutput out = model->Forward(sample);
      benchmark::DoNotOptimize(out.em_logits.value().data());
    }
    ActivationArena::Reset();
    ++i;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

Throughput MeasureThroughput(const std::string& model_name) {
  auto model = MakeModel(model_name);
  const auto& dataset = DatasetFor(model_name);
  core::TrainConfig config = bench::TrainConfigFromScale(g_scale, 6);
  config.max_epochs = 1;
  core::Trainer trainer(model.get(), &dataset, config);
  core::TrainResult result = trainer.Run();
  return {result.train_pairs_per_second, result.inference_pairs_per_second};
}

}  // namespace

int main(int argc, char** argv) {
  // EMBA_METRICS_OUT / EMBA_TRACE_OUT give per-stage visibility into the
  // runs (queue-wait, kernel mix); unset, the hot paths stay uninstrumented.
  InitObservabilityFromEnv();
  // Consume --serve-obs before google-benchmark parses the rest.
  int kept = 1;
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--serve-obs") == 0 && a + 1 < argc) {
      // Live scraping of a long run: curl :PORT/metrics mid-run.
      emba::Status status =
          emba::StartObservabilityServer(std::atoi(argv[++a]));
      if (!status.ok()) {
        std::fprintf(stderr, "--serve-obs failed: %s\n",
                     status.ToString().c_str());
        return 1;
      }
    } else {
      argv[kept++] = argv[a];
    }
  }
  argc = kept;

  g_scale = GetBenchScale();
  bench::DatasetCache cache(g_scale);
  // Fixed workload: the medium computers tier.
  core::EncodedDataset plain =
      cache.Get("wdc_computers_medium", core::InputStyle::kPlain);
  core::EncodedDataset ditto =
      cache.Get("wdc_computers_medium", core::InputStyle::kDitto);
  g_plain = &plain;
  g_ditto = &ditto;

  std::printf("=== Table 7: computational efficiency (pairs/second) ===\n");
  bench::TablePrinter table({"Model", "Training", "Inference"});
  double emba_ft_infer = 0.0, emba_infer = 0.0, emba_sb_infer = 0.0;
  for (const auto& model : Models()) {
    Throughput throughput = MeasureThroughput(model);
    if (model == "emba_ft") emba_ft_infer = throughput.inference;
    if (model == "emba") emba_infer = throughput.inference;
    if (model == "emba_sb") emba_sb_infer = throughput.inference;
    table.AddRow({model, FormatFixed(throughput.train, 1),
                  FormatFixed(throughput.inference, 1)});
    std::printf("[model done] %s\n", model.c_str());
  }
  std::printf("\n");
  table.Print();
  std::printf("\nShape check vs. paper Table 7: EMBA(FT) fastest "
              "(%.1f pairs/s inference), EMBA(SB) in between (%.1f), full "
              "EMBA slowest of the three (%.1f) — ordering FT > SB > EMBA "
              "should hold: %s.\n",
              emba_ft_infer, emba_sb_infer, emba_infer,
              (emba_ft_infer > emba_sb_infer && emba_sb_infer > emba_infer)
                  ? "yes" : "no");

  // google-benchmark microbenchmarks of the inference forward pass.
  std::printf("\n--- per-pair inference microbenchmarks ---\n");
  for (const auto& model : Models()) {
    benchmark::RegisterBenchmark(("BM_Inference/" + model).c_str(),
                                 BM_Inference, model);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
