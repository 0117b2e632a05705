// Reproduces paper Fig. 5: the *distribution* of model accuracy under fault
// injection (box plots in the paper; five-number summaries here) for FitAct,
// Clip-Act, Ranger, and the unprotected model — VGG16 on CIFAR-10 across the
// paper's fault-rate grid {1e-7, 1e-6, 3e-6, 1e-5, 3e-5}.
//
// The bit error rate fixes the fraction of corrupted parameters, which is
// scale-invariant, so the paper's rates are injected unmodified even at
// reduced model width. --rate-scale multiplies them for sensitivity studies
// (e.g. pass the full_scale_rate_factor to emulate equal absolute flip
// counts instead; see ev::full_scale_rate_factor).
//
// Usage: fig5_accuracy_distribution [--trials N] [--threads T] [--rate-scale S]
//                                   [--train-size N] [--test-size N]
//                                   [--epochs N] [--eval-samples N]
//                                   [--full] [--csv P]
// --threads T fans each campaign's trials out over T worker lanes (0 = one
// per hardware thread); results are bit-identical to the serial run. The
// size knobs shrink the run below the scaled defaults — the CI bench-smoke
// job uses them to exercise the whole pipeline in seconds.
#include <cstdio>
#include <string>
#include <vector>

#include "eval/campaign_cli.h"
#include "eval/experiment.h"
#include "eval/stats.h"
#include "util/cli.h"
#include "util/csv.h"
#include "util/log.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace fitact;
  const ut::Cli cli(argc, argv);
  const ev::ExperimentScale scale = ev::scale_from_cli(cli);
  ut::set_log_level(ut::LogLevel::warn);

  ev::PreparedModel pm = ev::prepare_model("vgg16", 10, scale, "fitact_cache");
  const double rate_factor = cli.get_double("rate-scale", 1.0);
  const std::string lanes =
      scale.campaign_threads == 0 ? "auto"
                                  : std::to_string(scale.campaign_threads);
  std::printf("Fig. 5 reproduction: accuracy distribution, VGG16 / CIFAR-10\n"
              "baseline %.2f%%, %lld trials per cell, rate scale %.1fx, "
              "%s campaign lanes\n\n",
              pm.baseline_accuracy * 100.0,
              static_cast<long long>(scale.trials), rate_factor,
              lanes.c_str());

  ut::CsvWriter csv(cli.get("csv", "fig5_accuracy_distribution.csv"),
                    {"scheme", "fault_rate", "mean", "min", "q1", "median",
                     "q3", "max"});

  const std::vector<core::Scheme> schemes = {
      core::Scheme::fitrelu, core::Scheme::clip_act, core::Scheme::ranger,
      core::Scheme::relu};
  // One session for the whole grid: worker-lane replicas are built once per
  // scheme (protect_model changes the source, so the session rebuilds
  // them), instead of for all 20 (scheme, rate) campaigns.
  ev::CampaignSession session(pm, scale);
  for (const auto scheme : schemes) {
    const ev::ProtectReport rep = ev::protect_model(pm, scheme, scale);
    std::printf("%s (clean accuracy with protection: %.2f%%)\n",
                ev::paper_label(scheme).c_str(), rep.clean_accuracy * 100.0);
    ut::TextTable table(
        {"fault rate", "mean", "min", "q1", "median", "q3", "max"});
    for (const double paper_rate : ev::paper_fault_rates()) {
      const auto result = session.run(paper_rate * rate_factor, 555);
      const ev::Summary s = ev::summarize(result.accuracies);
      table.row({ut::TextTable::sci(paper_rate),
                 ut::TextTable::percent(s.mean), ut::TextTable::percent(s.min),
                 ut::TextTable::percent(s.q1),
                 ut::TextTable::percent(s.median),
                 ut::TextTable::percent(s.q3),
                 ut::TextTable::percent(s.max)});
      csv.row({ev::paper_label(scheme), ut::CsvWriter::num(paper_rate),
               ut::CsvWriter::num(s.mean), ut::CsvWriter::num(s.min),
               ut::CsvWriter::num(s.q1), ut::CsvWriter::num(s.median),
               ut::CsvWriter::num(s.q3), ut::CsvWriter::num(s.max)});
    }
    table.print();
    std::printf("\n");
  }
  std::printf(
      "Expected shape (cf. paper Fig. 5): FitAct holds accuracy through\n"
      "1e-5; Clip-Act degrades beyond 1e-6; Ranger collapses earliest; the\n"
      "unprotected model drops to chance at every rate shown.\nCSV: %s\n",
      csv.path().c_str());
  return 0;
}
