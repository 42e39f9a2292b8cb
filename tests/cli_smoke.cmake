# Exit-code smoke test of predict_cli: a flag the command does not read,
# a malformed flag value, an unknown sampler and a --config value the
# algorithm rejects (on run and, before any sampling, on predict) exit 2;
# valid commands exit 0.
#
#   cmake -DCLI=/path/to/predict_cli -P tests/cli_smoke.cmake

function(expect_exit want)
  execute_process(COMMAND ${CLI} ${ARGN}
                  RESULT_VARIABLE got
                  OUTPUT_QUIET
                  ERROR_VARIABLE err)
  if(NOT got EQUAL want)
    string(REPLACE ";" " " args "${ARGN}")
    message(FATAL_ERROR "predict_cli ${args}: exit ${got}, want ${want}\n${err}")
  endif()
endfunction()

expect_exit(2 bound --epsilon 0.001 --ration 0.2)
expect_exit(2 whatif --algorithm pagerank --dataset wiki --scale 0.05
            --history runs.csv)
expect_exit(2 run --algorithm pagerank --dataset wiki --scale 0.05
            --workers abc)
expect_exit(2 sample --dataset wiki --scale 0.05 --method XYZ)
expect_exit(2 run --algorithm pagerank --dataset wiki --scale 0.05
            --config tau=abc)
expect_exit(2 run --algorithm semiclustering --dataset wiki --scale 0.05
            --config v_max=-1)
expect_exit(2 run --algorithm topk_ranking --dataset wiki --scale 0.05
            --config k=-1)
expect_exit(2 predict --algorithm semiclustering --dataset wiki --scale 0.05
            --config v_max=-1)
expect_exit(0 scenarios)
expect_exit(0 predict --algorithm pagerank --dataset wiki --scale 0.05)
