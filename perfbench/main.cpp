// caesar_perfbench — the paper-scale benchmark program (perfbench/run.py
// builds and runs it).
//
//   caesar_perfbench --workload paper_serial|paper_live
//                    --seed N --seconds S --trace 0|1 [--trace-out FILE]
//
// --trace 0 measures the workload for about S seconds and reports the
// end-to-end metrics; --trace 1 runs the per-layer ledger instead (fixed
// work over every layer, S is ignored). Human-readable lines come first;
// the last stdout line is one JSON object with the keys correct,
// attempted, failed and metrics. Exits 1 without a result on bad
// arguments or an unexpected error.
#include <cstdio>
#include <exception>
#include <string>

#include "common/cli.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  using namespace perfbench;
  const caesar::CliArgs args(argc, argv);
  const std::string workload = args.get_or("workload", "");
  if (workload != "paper_serial" && workload != "paper_live") {
    std::fprintf(stderr,
                 "caesar_perfbench: --workload must be paper_serial or "
                 "paper_live\n");
    return 1;
  }
  try {
    const std::uint64_t seed = args.get_u64("seed", 1);
    const double seconds = args.get_double("seconds", 10.0);
    const bool traced = args.get_u64("trace", 0) != 0;
    const Result result =
        traced ? run_ledger(seed, args.get_or("trace-out", ""))
               : run_workload(workload, seed, seconds);
    for (const auto& line : result.info) std::printf("# %s\n", line.c_str());
    for (const auto& line : result.notes) std::printf("! %s\n", line.c_str());
    for (const auto& m : result.metrics)
      std::printf("%-44s %14.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    std::printf("%s\n", result.json().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "caesar_perfbench: %s\n", e.what());
    return 1;
  }
}
