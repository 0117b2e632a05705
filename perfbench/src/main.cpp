// perfbench: the repository benchmark's workload runner.
//
//   perfbench --workload serve_fp32|serve_int8_faults|campaign_fitact
//             --seed N --seconds S --trace 0|1 --cache-dir DIR
//             [--trace-out FILE] [--git-sha SHA] [--source-sha SHA]
//   perfbench --fill-cache --cache-dir DIR
//
// Prints provenance, metric and check lines, then one JSON result line.
// perfbench/run.py builds this binary, fills the cache, and selects the
// metrics BENCHMARK.json declares.
#include <cstdio>
#include <exception>
#include <string>
#include <thread>

#include "tensor/kernels/kernels.h"
#include "util/cli.h"
#include "util/log.h"
#include "workload.h"

int main(int argc, char** argv) {
  using namespace fitact;
  const ut::Cli cli(argc, argv);
  ut::set_log_level(ut::LogLevel::warn);
  perfbench::RunOptions opt;
  opt.cache_dir = cli.get("cache-dir", "");
  if (opt.cache_dir.empty()) {
    std::fprintf(stderr, "perfbench: --cache-dir is required\n");
    return 2;
  }
  try {
    if (cli.get_flag("fill-cache")) return perfbench::fill_cache(opt.cache_dir);

    opt.workload = cli.get("workload", "");
    const std::int64_t seed = cli.get_int("seed", -1);
    opt.seconds = cli.get_double("seconds", 0.0);
    const std::string trace = cli.get("trace", "0");
    if (seed < 0 || !(opt.seconds > 0.0) || (trace != "0" && trace != "1")) {
      std::fprintf(stderr,
                   "perfbench: need --seed >= 0, --seconds > 0, --trace 0|1\n");
      return 2;
    }
    opt.seed = static_cast<std::uint64_t>(seed);
    opt.trace = trace == "1";
    opt.trace_out = cli.get("trace-out", "");

    perfbench::Report provenance;
    provenance.info("nproc",
                    std::to_string(std::thread::hardware_concurrency()));
    provenance.info("kernel_backend",
                    kern::backend_name(kern::active_backend()));
    provenance.info("gemm_i8_variant", kern::gemm_i8_variant());
    provenance.info("git_sha", cli.get("git-sha", "unknown"));
    provenance.info("source_sha256", cli.get("source-sha", "unknown"));
    provenance.info("seed", std::to_string(opt.seed));
    provenance.info("seconds", cli.get("seconds", ""));
    provenance.info("trace", trace);

    if (opt.workload == "campaign_fitact") return perfbench::run_campaign(opt);
    if (opt.workload == "serve_fp32" || opt.workload == "serve_int8_faults") {
      return perfbench::run_serve(opt);
    }
    std::fprintf(stderr, "perfbench: unknown --workload '%s'\n",
                 opt.workload.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
