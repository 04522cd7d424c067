// Reproduces the §4.1 autocorrelation study: is the serial correlation of
// M/M/16 response times at the maximum load of interest weak enough for the
// CLT-based detector?
//
// Protocol (verbatim from the paper): five independent replications of
// 100,000 transactions at lambda = 1.6, mu = 0.2; the first 10,000
// transactions of each replication are discarded; the lag-1 autocorrelation
// estimate is significant at 95% when |gamma_hat| > 1.96/sqrt(90000).
// Paper expectation: significant in only one of the five replications.
#include <iostream>

#include "bench_flags.h"
#include "common/table.h"
#include "harness/experiment.h"
#include "stats/autocorrelation.h"

int main(int argc, char** argv) {
  using namespace rejuv;
  const auto flags = bench::parse_flags(argc, argv, {"lambda", "mu", "servers", "txns", "warmup", "reps", "seed"});
  const double lambda = flags.get_double("lambda", 1.6);
  const double mu = flags.get_double("mu", 0.2);
  const auto servers = static_cast<std::size_t>(flags.get_int("servers", 16));
  const auto transactions = static_cast<std::uint64_t>(flags.get_int("txns", 100'000));
  const auto warmup = static_cast<std::size_t>(flags.get_int("warmup", 10'000));
  const auto replications = static_cast<std::uint64_t>(flags.get_int("reps", 5));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 20060625));

  std::cout << "### §4.1 — lag-1 autocorrelation of M/M/" << servers
            << " response times at lambda = " << lambda << "\n\n"
            << replications << " replications x " << transactions << " transactions, warmup "
            << warmup << "\n\n";

  common::Table table({"replication", "gamma_1", "gamma_2", "gamma_3", "gamma_5", "bound",
                       "lag1_significant", "ljung_box_Q5", "LB_p_value"});
  std::size_t significant_count = 0;
  for (std::uint64_t rep = 0; rep < replications; ++rep) {
    const auto series =
        harness::simulate_mmc_response_times(lambda, mu, servers, transactions, seed, rep);
    const std::size_t m = series.size() - warmup;
    const double gamma = stats::lag1_autocorrelation(series, warmup);
    const double bound = stats::autocorrelation_significance_bound(m);
    const bool significant = stats::autocorrelation_is_significant(gamma, m);
    significant_count += significant ? 1u : 0u;
    const auto lb = stats::ljung_box(series, 5, warmup);
    table.add_row({std::to_string(rep + 1), common::format_double(gamma, 5),
                   common::format_double(stats::autocorrelation(series, 2, warmup), 5),
                   common::format_double(stats::autocorrelation(series, 3, warmup), 5),
                   common::format_double(stats::autocorrelation(series, 5, warmup), 5),
                   common::format_double(bound, 5), significant ? "yes" : "no",
                   common::format_double(lb.statistic, 2),
                   common::format_double(lb.p_value, 4)});
  }
  common::print_table(std::cout, "serial correlation per replication (paper checks lag 1)",
                      table);
  std::cout << "lag-1 significant in " << significant_count << " of " << replications
            << " replications (paper: 1 of 5)\n"
            << "the Ljung-Box column extends the check jointly over lags 1-5\n";
  return 0;
}
