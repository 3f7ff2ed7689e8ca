#include "stats.hpp"

#include <algorithm>
#include <stdexcept>

namespace perfbench {

Percentile
percentile(std::vector<double> samples, int pct)
{
    if (samples.empty() || pct < 1 || pct > 100)
        throw std::invalid_argument(
            "percentile needs samples and pct in [1, 100]");
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    // Integer ceiling: no floating-point rounding in the rank.
    const std::size_t rank =
        (static_cast<std::size_t>(pct) * n + 99) / 100;
    return {samples[rank - 1], n, n - rank};
}

double
median(std::vector<double> samples)
{
    if (samples.empty())
        throw std::invalid_argument("median of no samples");
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    return n % 2 ? samples[n / 2]
                 : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

} // namespace perfbench
