// Ablation: the FitReLU steepness coefficient k (paper Eq. 6,
// "empirically computed"). Two views:
//   1. function-level: max deviation of FitReLU from FitReLU-Naive outside
//      a transition band, which shrinks as k grows;
//   2. system-level: clean accuracy and accuracy under faults of a
//      FitAct-protected model across k values.
//
// Usage: ablation_k [--model tinycnn] [--trials N] [--threads T]
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "autograd/ops.h"
#include "core/post_training.h"
#include "core/protection.h"
#include "eval/campaign_cli.h"
#include "eval/experiment.h"
#include "util/cli.h"
#include "util/csv.h"
#include "util/log.h"
#include "util/table.h"

namespace {

using namespace fitact;

double max_deviation_from_naive(float k, float lambda) {
  double worst = 0.0;
  for (int i = 0; i <= 2000; ++i) {
    const float x = -2.0f + 10.0f * static_cast<float>(i) / 2000.0f;
    if (std::abs(x - lambda) < 4.0f / k) continue;  // transition band
    Variable vx(Tensor::full(Shape{1, 1}, x), false);
    Variable vl(Tensor::scalar(lambda), false);
    const float smooth = ag::fitrelu(vx, vl, k).value()[0];
    const float naive = (x > 0.0f && x <= lambda) ? x : 0.0f;
    worst = std::max(worst, static_cast<double>(std::abs(smooth - naive)));
  }
  return worst;
}

}  // namespace

int main(int argc, char** argv) {
  const ut::Cli cli(argc, argv);
  ev::CampaignCliDefaults defaults;
  defaults.train_size = 512;
  defaults.allow_full = false;
  const ev::ExperimentScale scale = ev::scale_from_cli(cli, defaults);
  const std::string model_name = cli.get("model", "tinycnn");
  ut::set_log_level(ut::LogLevel::warn);

  std::printf("Ablation: FitReLU steepness k (lambda = 2.0)\n\n");
  ut::CsvWriter csv(cli.get("csv", "ablation_k.csv"),
                    {"k", "max_dev_from_naive", "clean_acc",
                     "acc_under_fault"});

  ev::PreparedModel pm =
      ev::prepare_model(model_name, 10, scale, "fitact_cache");
  const double rate = cli.get_double("rate", 3e-5);  // stress rate

  ut::TextTable table(
      {"k", "max |FitReLU - Naive|", "clean acc", "acc under fault"});
  // Replica lanes persist across the k sweep; pm.touch() flags the direct
  // re-protection + post-training so the session rebuilds them.
  ev::CampaignSession session(pm, scale);
  for (const float k : {1.0f, 2.0f, 5.0f, 10.0f, 25.0f, 50.0f}) {
    const double dev = max_deviation_from_naive(k, 2.0f);

    ev::protect_model(pm, core::Scheme::relu, scale);  // refresh profile path
    core::ProtectionOptions opts;
    opts.granularity = core::Granularity::per_neuron;
    opts.k = k;
    core::apply_protection(*pm.model, core::Scheme::fitrelu, opts);
    core::post_train_bounds(*pm.model, *pm.train, *pm.test,
                            pm.baseline_accuracy, scale.post);
    pm.touch();  // model mutated outside protect_model
    const double clean = ev::clean_subset_accuracy(pm, scale);
    const auto result = session.run(rate, 321);

    table.row({ut::TextTable::fixed(k, 0), ut::TextTable::fixed(dev, 4),
               ut::TextTable::percent(clean),
               ut::TextTable::percent(result.mean_accuracy)});
    csv.row_values({k, dev, clean, result.mean_accuracy});
  }
  table.print();
  std::printf(
      "\nExpected: deviation from the naive cut-off shrinks ~1/k; small k\n"
      "blurs the bound (leaks faulty values and perturbs clean signal),\n"
      "very large k gives vanishing lambda-gradients during post-training.\n"
      "Intermediate k (the library default, 8) balances both.\nCSV: %s\n",
      csv.path().c_str());
  return 0;
}
