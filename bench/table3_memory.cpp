// Regenerates Table III: ATM memory overhead with respect to the
// application footprint (paper: 3.7% .. 21.21%, average 9.4%).
#include "bench_common.hpp"

int main() {
  using namespace atm;
  using namespace atm::bench;

  print_header("Table III: ATM MEMORY OVERHEAD WITH RESPECT TO THE APPLICATION",
               "Paper: Brumar et al., IPDPS'17, Table III (average 9.4%)");

  TablePrinter table({"Benchmark", "App memory", "ATM memory (pinned)",
                      "Overhead", "Paper"});
  const char* paper_overheads[] = {"4.9%", "9.8%", "9.26%", "21.21%", "7.7%", "3.7%"};

  const auto preset = apps::preset_from_env();
  const auto apps_list = apps::make_all_apps(preset);
  double sum = 0.0;
  for (std::size_t i = 0; i < apps_list.size(); ++i) {
    // Dynamic ATM run: the configuration whose footprint the paper reports
    // (N=8, M=128 as in §IV-B).
    const RunConfig config{.threads = default_threads(), .mode = AtmMode::Dynamic};
    const RunResult run = apps_list[i]->run(config);
    const double overhead = static_cast<double>(run.atm_memory_bytes) /
                            static_cast<double>(run.app_memory_bytes);
    sum += overhead;
    table.add_row({apps_list[i]->name(), fmt_bytes(run.app_memory_bytes),
                   fmt_bytes(run.atm_memory_bytes), fmt_percent(overhead),
                   paper_overheads[i]});
  }
  table.print(std::cout);
  std::cout << "\nAverage overhead = "
            << fmt_percent(sum / static_cast<double>(apps_list.size()))
            << "  (paper average: 9.4%)\n"
            << "ATM memory counts THT snapshots + IKT + sampler index caches +\n"
               "training state actually pinned at the end of the run; the\n"
               "recyclable arena slack is excluded (docs/DESIGN.md §5).\n";
  return 0;
}
