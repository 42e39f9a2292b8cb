#include "core/distribution.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "common/rng.h"

namespace predict {

double PredictionDistribution::QuantileSeconds(double q) const {
  if (samples.empty()) return point_seconds;
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double t = pos - static_cast<double>(lo);
  return samples[lo] + t * (samples[hi] - samples[lo]);
}

double PredictionDistribution::PredictedAtConfidence(double confidence) const {
  if (confidence <= 0.5 || samples.empty()) return point_seconds;
  return std::max(point_seconds, QuantileSeconds(confidence));
}

std::string PredictionDistribution::ToString() const {
  std::ostringstream out;
  out << "point=" << point_seconds << "s";
  if (!samples.empty()) {
    out << " p50=" << p50_seconds << "s p95=" << p95_seconds << "s ("
        << samples.size() << " replicates)";
  }
  return out.str();
}

PredictionDistribution BootstrapDistribution(
    const std::vector<double>& per_iteration_seconds,
    const std::vector<double>& residuals, double straggler_spread,
    const BootstrapOptions& options) {
  PredictionDistribution dist;
  dist.point_seconds = std::accumulate(per_iteration_seconds.begin(),
                                       per_iteration_seconds.end(), 0.0);
  dist.p50_seconds = dist.point_seconds;
  dist.p95_seconds = dist.point_seconds;
  dist.seed = options.seed;
  if (!options.enabled || options.num_samples <= 0 || residuals.empty() ||
      per_iteration_seconds.empty()) {
    return dist;
  }

  const double spread = std::max(0.0, straggler_spread);
  Rng rng(options.seed);
  dist.samples.reserve(static_cast<size_t>(options.num_samples));
  for (int s = 0; s < options.num_samples; ++s) {
    // One independent stream per replicate: inserting an iteration or
    // changing the replicate count never reshuffles the other draws.
    Rng replicate = rng.Fork(static_cast<uint64_t>(s));
    double total = 0.0;
    for (double predicted : per_iteration_seconds) {
      const double residual =
          residuals[replicate.Uniform(residuals.size())];
      // Iterations can't run in negative time, so each perturbed
      // iteration clamps at zero (mirroring the models' own clamp).
      const double stretch = 1.0 + spread * replicate.NextDouble();
      total += std::max(0.0, (predicted + residual) * stretch);
    }
    dist.samples.push_back(total);
  }
  std::sort(dist.samples.begin(), dist.samples.end());
  dist.p50_seconds = dist.QuantileSeconds(0.5);
  dist.p95_seconds = dist.QuantileSeconds(0.95);
  return dist;
}

}  // namespace predict
