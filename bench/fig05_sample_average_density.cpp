// Reproduces Fig. 5: the exact probability density of the average response
// time X̄n for n = 1, 5, 15, 30 in the M/M/16 system with lambda = 1.6,
// mu = 0.2, next to the approximating normal density
// N(mu_X, sigma_X^2 / n).
//
// The exact density comes from eq. (4): the probability flux into the
// absorbing state of the Fig. 4 CTMC, computed by uniformization (our
// replacement for the SHARPE tool). Expectation: visibly skewed at n = 1,
// close to the normal curve by n = 15 and n = 30.
#include <iostream>

#include "bench_flags.h"
#include "common/table.h"
#include "queueing/mmc.h"

int main(int argc, char** argv) {
  using namespace rejuv;
  const auto flags = bench::parse_flags(argc, argv, {"lambda", "mu", "servers", "points"});
  const double lambda = flags.get_double("lambda", 1.6);
  const double mu = flags.get_double("mu", 0.2);
  const auto servers = static_cast<std::size_t>(flags.get_int("servers", 16));
  const auto points = static_cast<std::size_t>(flags.get_int("points", 40));

  const queueing::MmcQueue queue(lambda, mu, servers);
  std::cout << "### Fig. 5 — density of the average response time X̄n vs normal approximation\n\n"
            << "M/M/" << servers << ", lambda = " << lambda << ", mu = " << mu
            << "; mu_X = " << queue.mean_response_time()
            << ", sigma_X = " << queue.response_time_stddev() << "\n\n";

  // The paper's panels use these sample sizes and roughly these x-ranges.
  struct Panel {
    std::size_t n;
    double x_lo;
    double x_hi;
  };
  const Panel panels[] = {{1, 0.0, 25.0}, {5, 1.0, 15.0}, {15, 2.0, 10.0}, {30, 3.0, 8.0}};

  for (const Panel& panel : panels) {
    const auto dist = queue.sample_average_distribution(panel.n);
    common::Table table({"x", "exact_pdf", "normal_pdf"});
    for (std::size_t i = 0; i <= points; ++i) {
      const double x =
          panel.x_lo + (panel.x_hi - panel.x_lo) * static_cast<double>(i) / static_cast<double>(points);
      table.add_row({common::format_double(x, 3), common::format_general(dist.pdf(x)),
                     common::format_general(dist.normal_approximation_pdf(x))});
    }
    common::print_table(std::cout, "n = " + std::to_string(panel.n), table);

    // Total-variation distance 0.5 * integral |exact - normal| over a wide
    // range (trapezoid rule); comparable across n, shrinks as n grows.
    const double wide_lo = 0.0;
    const double wide_hi = dist.mean() + 12.0 * dist.stddev();
    const std::size_t tv_points = 400;
    const double h = (wide_hi - wide_lo) / static_cast<double>(tv_points);
    double tv = 0.0;
    for (std::size_t i = 0; i <= tv_points; ++i) {
      const double x = wide_lo + h * static_cast<double>(i);
      const double gap = std::abs(dist.pdf(x) - dist.normal_approximation_pdf(x));
      tv += (i == 0 || i == tv_points) ? 0.5 * gap : gap;
    }
    tv *= 0.5 * h;
    std::cout << "total-variation distance to the normal approximation: "
              << common::format_general(tv) << " (shrinks as n grows)\n\n";
  }
  return 0;
}
