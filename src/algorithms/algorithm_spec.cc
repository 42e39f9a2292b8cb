#include "algorithms/algorithm_spec.h"

#include <cmath>

#include "common/strings.h"

namespace predict {

const char* ConvergenceKindName(ConvergenceKind kind) {
  switch (kind) {
    case ConvergenceKind::kAbsoluteAggregate:
      return "absolute_aggregate";
    case ConvergenceKind::kRelativeRatio:
      return "relative_ratio";
    case ConvergenceKind::kFixedPoint:
      return "fixed_point";
  }
  return "unknown";
}

Result<AlgorithmConfig> ResolveConfig(const AlgorithmSpec& spec,
                                      const AlgorithmConfig& overrides) {
  AlgorithmConfig config = spec.default_config;
  for (const auto& [key, value] : overrides) {
    if (config.find(key) == config.end()) {
      return Status::InvalidArgument("algorithm '" + spec.name +
                                     "' has no config parameter '" + key + "'");
    }
    config[key] = value;
  }
  if (spec.check_config != nullptr) {
    PREDICT_RETURN_NOT_OK(StatusAnnotate(spec.check_config(config), spec.name));
  }
  return config;
}

Status CheckWholeInRange(const AlgorithmConfig& config, const char* key,
                         double lo, double hi) {
  const double value = config.at(key);
  if (value >= lo && value < hi && value == std::floor(value)) {
    return Status::OK();
  }
  return Status::InvalidArgument(std::string(key) +
                                 " must be a whole number in [" +
                                 FormatDouble(lo, 17) + ", " +
                                 FormatDouble(hi, 17) + "), got " +
                                 FormatDouble(value, 17));
}

Status CheckFinite(const AlgorithmConfig& config, const char* key) {
  if (std::isfinite(config.at(key))) return Status::OK();
  return Status::InvalidArgument(std::string(key) + " must be finite");
}

Result<double> GetConfigValue(const AlgorithmConfig& config,
                              const std::string& key) {
  const auto it = config.find(key);
  if (it == config.end()) {
    return Status::NotFound("missing config parameter '" + key + "'");
  }
  return it->second;
}

}  // namespace predict
