// Reproduces paper Fig. 6: the full resilience grid — *average* accuracy of
// FitAct vs Clip-Act vs Ranger vs unprotected for {ResNet50, VGG16, AlexNet}
// x {CIFAR-10, CIFAR-100} x fault rates {1e-7 ... 3e-5}.
//
// This is the paper's headline experiment. The scaled default shrinks model
// widths / trial counts so the whole grid completes on a small CPU machine;
// the bit error rates are the paper's own (a rate fixes the *fraction* of
// corrupted parameters, which is scale-invariant; see
// ev::full_scale_rate_factor).
//
// Usage: fig6_resilience_grid [--models vgg16,alexnet] [--classes 10]
//                             [--trials N] [--threads T] [--rate-scale S]
//                             [--full] [--csv P]
// --threads T fans each campaign's trials out over T worker lanes (0 = one
// per hardware thread); results are bit-identical to the serial run.
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "eval/campaign_cli.h"
#include "eval/experiment.h"
#include "util/cli.h"
#include "util/csv.h"
#include "util/log.h"
#include "util/table.h"

namespace {
std::vector<std::string> split_csv_list(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}
}  // namespace

int main(int argc, char** argv) {
  using namespace fitact;
  const ut::Cli cli(argc, argv);
  const ev::ExperimentScale scale = ev::scale_from_cli(cli);
  ut::set_log_level(ut::LogLevel::warn);

  const auto models =
      split_csv_list(cli.get("models", "resnet50,vgg16,alexnet"));
  std::vector<std::int64_t> class_list = {10, 100};
  if (cli.has("classes")) class_list = {cli.get_int("classes", 10)};

  const std::vector<core::Scheme> schemes = {
      core::Scheme::fitrelu, core::Scheme::clip_act, core::Scheme::ranger,
      core::Scheme::relu};

  ut::CsvWriter csv(cli.get("csv", "fig6_resilience_grid.csv"),
                    {"model", "dataset", "scheme", "fault_rate",
                     "mean_accuracy"});

  std::printf("Fig. 6 reproduction: average accuracy under faults\n\n");
  for (const std::int64_t classes : class_list) {
    for (const auto& model_name : models) {
      ev::PreparedModel pm =
          ev::prepare_model(model_name, classes, scale, "fitact_cache");
      const double rate_factor = cli.get_double("rate-scale", 1.0);
      std::printf("%s / CIFAR-%lld  (baseline %.2f%%)\n", model_name.c_str(),
                  static_cast<long long>(classes),
                  pm.baseline_accuracy * 100.0);

      ut::TextTable table({"scheme", "1e-7", "1e-6", "3e-6", "1e-5", "3e-5"});
      // Replica lanes live across the scheme x rate grid for this model;
      // protect_model marks the session stale and the lanes are rebuilt.
      ev::CampaignSession session(pm, scale);
      for (const auto scheme : schemes) {
        ev::protect_model(pm, scheme, scale);
        std::vector<std::string> row{ev::paper_label(scheme)};
        for (const double paper_rate : ev::paper_fault_rates()) {
          const auto result = session.run(paper_rate * rate_factor, 999);
          row.push_back(ut::TextTable::percent(result.mean_accuracy));
          csv.row({model_name, "CIFAR-" + std::to_string(classes),
                   ev::paper_label(scheme), ut::CsvWriter::num(paper_rate),
                   ut::CsvWriter::num(result.mean_accuracy)});
        }
        table.row(std::move(row));
      }
      table.print();
      std::printf("\n");
    }
  }
  std::printf(
      "Expected shape (cf. paper Fig. 6): every protection beats\n"
      "Unprotected; FitAct leads at 3e-6 and beyond (paper: 84.81%% vs\n"
      "Clip-Act 52.47%% on ResNet50/CIFAR-10 at 3e-6); Ranger trails because\n"
      "saturated faulty values keep propagating.\nCSV: %s\n",
      csv.path().c_str());
  return 0;
}
