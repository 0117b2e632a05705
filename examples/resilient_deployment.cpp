// Scenario: preparing a safety-critical deployment (the paper's motivating
// use case — e.g. a perception model on a self-driving edge device).
//
// The pipeline trains VGG16 (scaled), protects it with each scheme, and
// prints a deployment report: clean accuracy, accuracy under three fault
// rates, parameter memory, and the bound-parameter overhead — the numbers an
// engineer would need to sign off a protection choice.
//
// Run: ./resilient_deployment [--model vgg16] [--classes 10] [--width 0.125]
//                             [--threads 1]   (campaign worker lanes; 0 = auto)
#include <cstdio>
#include <string>
#include <vector>

#include "core/activation.h"
#include "eval/campaign_cli.h"
#include "eval/experiment.h"
#include "quant/param_image.h"
#include "util/cli.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace fitact;
  const ut::Cli cli(argc, argv);
  const std::string model_name = cli.get("model", "vgg16");
  const std::int64_t classes = cli.get_int("classes", 10);

  ev::CampaignCliDefaults defaults;
  defaults.train_size = 768;
  defaults.train_epochs = 5;
  defaults.eval_samples = 64;
  defaults.trials = 4;
  defaults.allow_full = false;
  ev::ExperimentScale scale = ev::scale_from_cli(cli, defaults);
  if (cli.has("width")) {
    const auto w = static_cast<float>(cli.get_double("width", 0.125));
    scale.width_alexnet = scale.width_vgg16 = scale.width_resnet50 = w;
  }

  std::printf("Preparing %s (classes=%lld) for resilient deployment...\n\n",
              model_name.c_str(), static_cast<long long>(classes));
  ev::PreparedModel pm =
      ev::prepare_model(model_name, classes, scale, "fitact_cache");

  // Fault rates scaled up relative to the paper grid because the scaled
  // model has ~100x fewer parameter bits.
  const std::vector<double> rates = {1e-5, 1e-4, 3e-4};

  ut::TextTable table({"scheme", "clean acc", "acc@1e-5", "acc@1e-4",
                       "acc@3e-4", "param Mb", "bound params"});
  // One lane set across the scheme x rate report; protect_model rebuilds it.
  ev::CampaignSession session(pm, scale);
  for (const auto scheme :
       {core::Scheme::relu, core::Scheme::ranger, core::Scheme::clip_act,
        core::Scheme::fitrelu}) {
    const ev::ProtectReport rep = ev::protect_model(pm, scheme, scale);
    std::vector<std::string> row;
    row.push_back(ev::paper_label(scheme));
    row.push_back(ut::TextTable::percent(rep.clean_accuracy));
    for (const double rate : rates) {
      const auto result = session.run(rate, 4242);
      row.push_back(ut::TextTable::percent(result.mean_accuracy));
    }
    quant::ParamImage image(*pm.model);
    row.push_back(ut::TextTable::fixed(
        static_cast<double>(image.byte_count()) / (1024.0 * 1024.0), 2));
    row.push_back(std::to_string(core::total_bound_count(*pm.model)));
    table.row(std::move(row));
  }
  table.print();

  std::printf(
      "\nReading the report: FitAct should hold accuracy furthest into the\n"
      "high-rate regime at a small bound-parameter cost; Ranger's saturating\n"
      "restriction degrades first (cf. paper Figs. 5-6).\n");
  return 0;
}
