// Reproduces the §4.1 claim behind the paper's baseline choice: for the
// M/M/16 system with mu = 0.2, both the mean and the standard deviation of
// the response time stay at their no-queueing value of 5 for arrival rates
// below about 1 transaction/second, and diverge above (eq. 2 and eq. 3).
//
// Also cross-checks the analytic moments against the phase-type
// representation (Fig. 2/3) at every grid point.
#include <algorithm>
#include <cmath>
#include <iostream>

#include "bench_flags.h"
#include "common/table.h"
#include "queueing/mmc.h"

int main(int argc, char** argv) {
  using namespace rejuv;
  const auto flags = bench::parse_flags(argc, argv, {"mu", "servers"});
  const double mu = flags.get_double("mu", 0.2);
  const auto servers = static_cast<std::size_t>(flags.get_int("servers", 16));

  std::cout << "### eq. (2)/(3) — response-time moments of M/M/" << servers
            << " with mu = " << mu << "\n\n";

  common::Table table(
      {"lambda", "load_cpus", "Wc", "mean_rt", "stddev_rt", "phase_type_mean", "phase_type_sd"});
  double max_gap = 0.0;
  for (const double lambda : {0.1, 0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0, 2.4, 2.8}) {
    const queueing::MmcQueue queue(lambda, mu, servers);
    const auto pt = queue.response_time_phase_type();
    max_gap = std::max({max_gap, std::abs(pt.mean() - queue.mean_response_time()),
                        std::abs(pt.stddev() - queue.response_time_stddev())});
    table.add_row({common::format_double(lambda, 2),
                   common::format_double(queue.offered_load_cpus(), 1),
                   common::format_double(queue.probability_no_wait(), 6),
                   common::format_double(queue.mean_response_time(), 4),
                   common::format_double(queue.response_time_stddev(), 4),
                   common::format_double(pt.mean(), 4), common::format_double(pt.stddev(), 4)});
  }
  common::print_table(std::cout, "analytic moments (eq. 2/3) vs phase-type (Fig. 2/3)", table);
  std::cout << "max |analytic - phase-type| over the grid: " << common::format_general(max_gap)
            << "\npaper claim: mean = stddev = 5 for lambda < 1; divergence above\n";
  return 0;
}
