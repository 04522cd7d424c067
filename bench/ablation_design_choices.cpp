// Ablation benches for the design choices DESIGN.md calls out.
//
// 1. Sampling acceleration: SARAA vs SARAA with the acceleration disabled
//    (same sqrt(n)-scaled targets, window pinned at norig). Isolates how
//    much of SARAA's high-load advantage comes from shrinking the window.
// 2. Bucket cascade vs plain threshold: SRAA(n,K,D) vs SRAA(n,1,1) at the
//    same n — what the multi-bucket machinery buys at low load.
// 3. Rejuvenation downtime: the paper treats rejuvenation as instantaneous;
//    this sweep shows the sensitivity of both metrics to a non-zero restore
//    time (0 s / 30 s / 120 s).
#include <iostream>

#include "core/spec.h"
#include "figure_bench.h"

namespace {

void downtime_sweep(const rejuv::bench::FigureOptions& options) {
  using namespace rejuv;
  const core::DetectorConfig detector = harness::saraa_config({2, 5, 3});
  common::Table table({"downtime_s", "rt_at_high_load", "loss_at_low_load", "loss_at_high_load",
                       "rejuvenations_total"});
  for (const double downtime : {0.0, 30.0, 120.0}) {
    model::EcommerceConfig system = harness::paper_system();
    system.rejuvenation_downtime_seconds = downtime;
    const auto sweep = harness::run_sweep(detector, system, options.loads, options.protocol);
    std::uint64_t rejuvenations = 0;
    for (const auto& point : sweep.points) rejuvenations += point.rejuvenations;
    table.add_row({common::format_double(downtime, 0),
                   common::format_double(sweep.points.back().avg_response_time, 2),
                   common::format_double(sweep.points.front().loss_fraction, 6),
                   common::format_double(sweep.points.back().loss_fraction, 6),
                   std::to_string(rejuvenations)});
  }
  common::print_table(std::cout, "ablation 3 — rejuvenation downtime, SARAA(2,5,3)", table);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rejuv;
  const auto options = bench::parse_figure_options(argc, argv);

  // Ablation 1: acceleration on/off.
  {
    const core::DetectorConfig configs[] = {
        harness::saraa_config({10, 3, 1}), core::parse_spec("SARAA-noaccel(n=10,K=3,D=1)"),
        harness::saraa_config({6, 5, 1}), core::parse_spec("SARAA-noaccel(n=6,K=5,D=1)")};
    const std::string no_refs[] = {std::string("-")};
    bench::run_figure("ablation 1 — SARAA sampling acceleration on vs off", configs, options,
                      no_refs, /*with_loss_table=*/false);
  }

  // Ablation 2: bucket cascade vs plain threshold at equal n.
  {
    const core::DetectorConfig configs[] = {
        harness::sraa_config({3, 2, 5}), harness::sraa_config({3, 1, 1}),
        harness::sraa_config({5, 2, 3}), harness::sraa_config({5, 1, 1})};
    const std::string no_refs[] = {std::string("-")};
    bench::run_figure("ablation 2 — bucket cascade vs plain threshold (same n)", configs, options,
                      no_refs, /*with_loss_table=*/true);
  }

  downtime_sweep(options);
  return 0;
}
