// Self-checking reproduction: runs reduced-budget versions of every
// experiment and prints PASS/FAIL for each qualitative claim of the paper
// that this build is expected to reproduce (EXPERIMENTS.md documents the one
// deliberate deviation, which is asserted in its *deviating* direction so a
// silent behaviour change cannot masquerade as a pass).
//
// Exit code = number of failed claims, so CI can gate on it.
#include <cmath>
#include <iostream>
#include <vector>

#include "bench_flags.h"
#include "common/table.h"
#include "harness/experiment.h"
#include "harness/paper.h"
#include "queueing/mmc.h"
#include "stats/autocorrelation.h"

namespace {

using namespace rejuv;

struct Checklist {
  common::Table table{{"claim", "expectation", "measured", "verdict"}};
  int failures = 0;

  void check(const std::string& claim, const std::string& expectation, const std::string& measured,
             bool passed) {
    table.add_row({claim, expectation, measured, passed ? "PASS" : "FAIL"});
    failures += passed ? 0 : 1;
  }
};

std::string rt_pair(double a, double b) {
  return common::format_double(a, 2) + " vs " + common::format_double(b, 2);
}

}  // namespace

int main(int argc, char** argv) {
  const auto flags = bench::parse_flags(argc, argv, {"txns"});
  harness::SimulationProtocol protocol = harness::SimulationProtocol::from_environment();
  protocol.transactions_per_replication = static_cast<std::uint64_t>(flags.get_int(
      "txns", static_cast<std::int64_t>(protocol.transactions_per_replication)));
  const auto system = harness::paper_system();
  Checklist list;

  std::cout << "### reproduction self-check (" << protocol.replications << " x "
            << protocol.transactions_per_replication << " transactions per point)\n\n";

  auto rt_at = [&](const core::DetectorConfig& config, double load) {
    return harness::run_point(config, system, load, protocol).avg_response_time;
  };
  auto loss_at = [&](const core::DetectorConfig& config, double load) {
    return harness::run_point(config, system, load, protocol).loss_fraction;
  };

  // --- §4.1 analytic claims.
  {
    const queueing::MmcQueue queue(1.6, 0.2, 16);
    const double fa15 = queue.sample_average_distribution(15).false_alarm_probability(1.96);
    const double fa30 = queue.sample_average_distribution(30).false_alarm_probability(1.96);
    list.check("S4.1 false alarm n=15", "3.69% +-0.15", common::format_double(100 * fa15, 2) + "%",
               std::abs(fa15 - 0.0369) < 0.0015);
    list.check("S4.1 false alarm n=30", "3.37% +-0.15", common::format_double(100 * fa30, 2) + "%",
               std::abs(fa30 - 0.0337) < 0.0015);
    list.check("S4.1 baseline muX=sigmaX=5", "eq.2/3 near 5 at lambda=1.6",
               rt_pair(queue.mean_response_time(), queue.response_time_stddev()),
               std::abs(queue.mean_response_time() - 5.0) < 0.05 &&
                   std::abs(queue.response_time_stddev() - 5.0) < 0.05);

    double tv_prev = 1e9;
    bool monotone = true;
    for (const std::size_t n : {1u, 5u, 15u}) {
      const auto dist = queue.sample_average_distribution(n);
      double tv = 0.0;
      const double hi = dist.mean() + 12.0 * dist.stddev();
      const int points = 150;
      for (int i = 0; i <= points; ++i) {
        const double x = hi * i / points;
        tv += std::abs(dist.pdf(x) - dist.normal_approximation_pdf(x));
      }
      tv *= 0.5 * hi / points;
      monotone = monotone && tv < tv_prev;
      tv_prev = tv;
    }
    list.check("Fig.5 normal approximation", "TV distance shrinks with n", "monotone", monotone);

    std::size_t significant = 0;
    for (std::uint64_t rep = 0; rep < 5; ++rep) {
      const auto series = harness::simulate_mmc_response_times(
          1.6, 0.2, 16, protocol.transactions_per_replication, protocol.base_seed, rep);
      const std::size_t warmup = series.size() / 10;
      const double gamma = stats::lag1_autocorrelation(series, warmup);
      significant += stats::autocorrelation_is_significant(gamma, series.size() - warmup) ? 1 : 0;
    }
    list.check("S4.1 autocorrelation minor", "<=2 of 5 replications significant",
               std::to_string(significant) + " of 5", significant <= 2);
  }

  // --- §5.1 dichotomy.
  {
    const double single_rt = rt_at(harness::sraa_config({15, 1, 1}), 9.0);
    const double multi_rt = rt_at(harness::sraa_config({3, 5, 1}), 9.0);
    list.check("S5.1 K=1 better RT at 9 CPUs", "(15,1,1) < (3,5,1)", rt_pair(single_rt, multi_rt),
               single_rt < multi_rt);
    const double single_loss = loss_at(harness::sraa_config({15, 1, 1}), 0.5);
    const double multi_loss = loss_at(harness::sraa_config({3, 5, 1}), 0.5);
    list.check("S5.1 K=1 loses at low load", "(15,1,1) > 5e-4, (3,5,1) < 5e-4",
               common::format_double(single_loss, 5) + " vs " +
                   common::format_double(multi_loss, 5),
               single_loss > 5e-4 && multi_loss < 5e-4);
  }

  // --- §5.2 / §5.3 doubling effects.
  {
    const double base = rt_at(harness::sraa_config({3, 5, 1}), 9.0);
    const double n2 = rt_at(harness::sraa_config({6, 5, 1}), 9.0);
    const double d2 = rt_at(harness::sraa_config({3, 5, 2}), 9.0);
    list.check("S5.2 doubling n raises RT", "(6,5,1) > (3,5,1)", rt_pair(n2, base), n2 > base);
    list.check("S5.3 depth milder than sample", "(3,5,2) < (6,5,1)", rt_pair(d2, n2), d2 < n2);
  }

  // --- §5.4 tradeoff picks.
  {
    const auto best = harness::sraa_config({3, 2, 5});
    list.check("S5.4 (3,2,5) balanced", "loss@0.5 < 1e-3 and RT@9 < 13",
               common::format_double(loss_at(best, 0.5), 5) + " / " +
                   common::format_double(rt_at(best, 9.0), 2),
               loss_at(best, 0.5) < 1e-3 && rt_at(best, 9.0) < 13.0);
  }

  // --- §5.5 SARAA < SRAA.
  {
    bool all = true;
    std::string measured;
    for (const harness::NkdTriple triple :
         {harness::NkdTriple{2, 5, 3}, harness::NkdTriple{2, 3, 5}, harness::NkdTriple{6, 5, 1}}) {
      const double saraa = rt_at(harness::saraa_config(triple), 9.0);
      const double sraa = rt_at(harness::sraa_config(triple), 9.0);
      all = all && saraa < sraa;
      measured += rt_pair(saraa, sraa) + "; ";
    }
    list.check("S5.5 SARAA beats SRAA at 9 CPUs", "3 of 3 pairs", measured, all);
  }

  // --- §5.6, including the documented deviation in its deviating direction.
  {
    const double clta_loss = loss_at(harness::clta_config(30, 1.96), 0.5);
    list.check("S5.6 CLTA low-load loss", "in [5e-4, 1e-2] (paper 0.0014)",
               common::format_double(clta_loss, 5), clta_loss > 5e-4 && clta_loss < 1e-2);
    const double clta_rt = rt_at(harness::clta_config(30, 1.96), 9.0);
    const double sraa_rt = rt_at(harness::sraa_config({2, 5, 3}), 9.0);
    list.check("S5.6 CLTA high-load RT (documented deviation)",
               "CLTA < SRAA in this model (paper: CLTA worst)", rt_pair(clta_rt, sraa_rt),
               clta_rt < sraa_rt);
  }

  // --- The motivating dynamic.
  {
    core::DetectorConfig none{"None"};
    const double unmanaged = rt_at(none, 9.0);
    const double managed = rt_at(harness::saraa_config({2, 5, 3}), 9.0);
    list.check("S1 rejuvenation prevents the spiral", "unmanaged > 10x managed",
               rt_pair(unmanaged, managed), unmanaged > 10.0 * managed);
  }

  common::print_table(std::cout, "reproduction checklist", list.table);
  std::cout << (list.failures == 0 ? "ALL CLAIMS REPRODUCED\n"
                                   : std::to_string(list.failures) + " CLAIM(S) FAILED\n");
  return list.failures;
}
