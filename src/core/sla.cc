#include "core/sla.h"

#include <cstdio>

#include "common/strings.h"
#include "service/prediction_service.h"

namespace predict {

std::string FeasibilityReport::ToString() const {
  std::string out =
      "job                     predicted  p(conf)      deadline  verdict\n";
  char buf[192];
  for (const JobFeasibility& job : jobs) {
    const char* verdict = job.feasible ? "OK" : "VIOLATES SLA";
    if (job.rejected_degraded) verdict = "DEGRADED (rejected)";
    std::snprintf(buf, sizeof(buf), "%-22s %10s  %10s@%.2f  %10s  %s%s\n",
                  job.job_name.c_str(),
                  FormatSeconds(job.predicted_seconds).c_str(),
                  FormatSeconds(job.predicted_at_confidence_seconds).c_str(),
                  job.confidence,
                  FormatSeconds(job.deadline_seconds).c_str(), verdict,
                  job.degradation.degraded() && !job.rejected_degraded
                      ? " [degraded]"
                      : "");
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), "workload: %s, total predicted %s\n",
                all_feasible ? "FEASIBLE" : "INFEASIBLE",
                FormatSeconds(total_predicted_seconds).c_str());
  out += buf;
  return out;
}

Result<FeasibilityReport> AnalyzeFeasibility(const std::vector<JobRequest>& jobs,
                                             const PredictorOptions& options) {
  FeasibilityReport report;
  Predictor predictor(options);
  for (const JobRequest& job : jobs) {
    if (job.graph == nullptr) {
      return Status::InvalidArgument("job '" + job.job_name + "' has no graph");
    }
    PREDICT_ASSIGN_OR_RETURN(
        PredictionReport prediction,
        predictor.PredictRuntime(job.algorithm, *job.graph, job.dataset_name,
                                 job.overrides));
    JobFeasibility feasibility;
    feasibility.job_name = job.job_name;
    feasibility.predicted_seconds = prediction.predicted_superstep_seconds;
    feasibility.confidence = job.confidence;
    feasibility.predicted_at_confidence_seconds =
        prediction.distribution.PredictedAtConfidence(job.confidence);
    feasibility.deadline_seconds = job.deadline_seconds;
    feasibility.feasible =
        feasibility.predicted_at_confidence_seconds <= job.deadline_seconds;
    feasibility.headroom_seconds =
        job.deadline_seconds - feasibility.predicted_at_confidence_seconds;
    feasibility.degradation = prediction.degradation;
    if (job.require_full_quality && prediction.degradation.degraded()) {
      // A degraded prediction skips the methodology the SLA decision is
      // calibrated on; the caller asked not to gamble on it.
      feasibility.feasible = false;
      feasibility.rejected_degraded = true;
    }
    feasibility.report = std::move(prediction);

    report.total_predicted_seconds += feasibility.predicted_seconds;
    report.all_feasible = report.all_feasible && feasibility.feasible;
    report.jobs.push_back(std::move(feasibility));
  }
  return report;
}

}  // namespace predict
