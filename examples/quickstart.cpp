// Quickstart: predict the runtime of PageRank on a scale-free graph,
// then run it for real and compare.
//
//   $ ./examples/quickstart
//
// Walks through the whole PREDIcT pipeline: build a graph, configure the
// predictor (BRJ sampling at 10%, default transform rules), predict, run
// the actual job, and print predicted vs. observed iterations / runtime.

#include <cstdio>

#include "algorithms/pagerank.h"
#include "core/history.h"
#include "core/predictor.h"
#include "datasets/datasets.h"
#include "graph/generators.h"
#include "graph/stats.h"
#include "service/prediction_service.h"

int main() {
  using namespace predict;

  // 1. An input graph. Any scale-free graph works; here: preferential
  // attachment with 50k vertices.
  PreferentialAttachmentOptions graph_options;
  graph_options.num_vertices = 50000;
  graph_options.out_degree = 10;
  graph_options.seed = 7;
  auto graph_result = GeneratePreferentialAttachment(graph_options);
  if (!graph_result.ok()) {
    std::fprintf(stderr, "graph generation failed: %s\n",
                 graph_result.status().ToString().c_str());
    return 1;
  }
  const Graph& graph = graph_result.value();
  std::printf("input: %s\n", DescribeGraph(graph).c_str());

  // 2. The actual job we want to predict: PageRank until the average
  // delta falls below tau = epsilon / N with epsilon = 0.001.
  const double epsilon = 0.001;
  const double tau = epsilon / static_cast<double>(graph.num_vertices());
  const AlgorithmConfig job_config = {{"tau", tau}};

  // 3. Configure PREDIcT: Biased Random Jump at a 10% sampling ratio, the
  // paper's cluster configuration (29 workers), default transform rules.
  PredictorOptions options;
  options.sampler.kind = SamplerKind::kBiasedRandomJump;
  options.sampler.sampling_ratio = 0.10;
  options.sampler.seed = 42;
  options.engine = PaperClusterOptions();
  options.engine.max_supersteps = 200;

  // PageRank's per-iteration features barely vary within one run, so a
  // cost model trained on the sample run alone cannot identify the cost
  // factors (the paper §5.2 evaluates runtime only for the variable
  // algorithms, and recommends history for the rest). Real deployments
  // have prior runs; we simulate one on last week's smaller crawl.
  HistoryStore history;
  {
    PreferentialAttachmentOptions last_week = graph_options;
    last_week.num_vertices = 20000;
    last_week.seed = 6;
    const Graph old_graph =
        GeneratePreferentialAttachment(last_week).MoveValue();
    const AlgorithmConfig old_config = {
        {"tau", epsilon / static_cast<double>(old_graph.num_vertices())}};
    auto old_run = RunPageRank(old_graph, old_config, options.engine);
    if (!old_run.ok()) {
      std::fprintf(stderr, "history run failed: %s\n",
                   old_run.status().ToString().c_str());
      return 1;
    }
    history.Add(ProfileFromRunStats("pagerank", "last-week",
                                    old_graph.num_vertices(),
                                    old_graph.num_edges(), old_run->stats));
  }
  options.history = &history;

  Predictor predictor(options);
  auto prediction = predictor.PredictRuntime("pagerank", graph, "quickstart",
                                             job_config);
  if (!prediction.ok()) {
    std::fprintf(stderr, "prediction failed: %s\n",
                 prediction.status().ToString().c_str());
    return 1;
  }
  const PredictionReport& report = prediction.value();
  std::printf("\nPREDIcT (sample ratio %.2f, transform %s):\n",
              report.realized_sampling_ratio,
              report.transform_description.c_str());
  std::printf("  predicted iterations:        %d\n",
              report.predicted_iterations);
  std::printf("  predicted superstep runtime: %.1f s\n",
              report.predicted_superstep_seconds);
  std::printf("  cost model:                  %s\n",
              report.cost_model.ToString().c_str());
  std::printf("  sample-run overhead:         %.1f s simulated (%.3f s wall)\n",
              report.sample_total_seconds, report.sample_wall_seconds);

  // 4. Run the actual job and compare.
  auto actual = RunPageRank(graph, job_config, options.engine);
  if (!actual.ok()) {
    std::fprintf(stderr, "actual run failed: %s\n",
                 actual.status().ToString().c_str());
    return 1;
  }
  const PredictionEvaluation eval = EvaluatePrediction(report, actual->stats);
  std::printf("\nactual run:\n");
  std::printf("  iterations:        %d\n", eval.actual_iterations);
  std::printf("  superstep runtime: %.1f s\n", eval.actual_superstep_seconds);
  std::printf("\nrelative errors: iterations %+.1f%%, runtime %+.1f%%\n",
              100.0 * eval.iterations_error, 100.0 * eval.runtime_error);
  return 0;
}
