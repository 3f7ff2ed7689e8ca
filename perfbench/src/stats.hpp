/**
 * @file
 * Order statistics the benchmark reports, and its one clock helper.
 */

#ifndef PERFBENCH_STATS_HPP
#define PERFBENCH_STATS_HPP

#include <chrono>
#include <cstddef>
#include <vector>

namespace perfbench {

/** A nearest-rank percentile with the sample counts behind it. */
struct Percentile
{
    double value = 0.0;
    std::size_t samples = 0; ///< observations it was taken over
    std::size_t beyond = 0;  ///< observations strictly above its rank
};

/**
 * Nearest-rank percentile: the ceil(pct/100 * n)-th smallest sample
 * (1-based), so at least pct% of the samples are at or below it and
 * `beyond` = n - rank lie past it. pct in [1, 100]; samples non-empty.
 */
Percentile percentile(std::vector<double> samples, int pct);

/** Middle value (mean of the two middle ones for even n); n > 0. */
double median(std::vector<double> samples);

/** Wall seconds since `t0` on the steady clock. */
inline double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

} // namespace perfbench

#endif // PERFBENCH_STATS_HPP
