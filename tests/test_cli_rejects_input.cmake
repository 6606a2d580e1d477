# deepthermo_cli must reject bad input with exit code 1 and a message,
# before it runs anything: no abort (exit 134), no pretraining first.
#
# Run via `cmake -P` from ctest (see tests/CMakeLists.txt).
# Required -D variable: CLI (path to the deepthermo_cli binary).

if(NOT DEFINED CLI)
  message(FATAL_ERROR "test_cli_rejects_input: -DCLI=... is required")
endif()

# flag | text the stderr message must contain
set(cases
  "--cellz=3|did you mean 'cells'"
  "--t_points=0|t_points"
  "--t_lo=-0.1|t_lo"
  "--log_f_final=0|log_f_final"
  "--exchange_interval=0|exchange_interval"
  "--telemetry=rejected.csv|JSONL"
)

set(failures 0)
foreach(case IN LISTS cases)
  string(REPLACE "|" ";" parts "${case}")
  list(GET parts 0 flag)
  list(GET parts 1 expected)

  execute_process(
    COMMAND "${CLI}" "${flag}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    TIMEOUT 60)
  set(all "${out}${err}")

  if(NOT rc EQUAL 1)
    message(WARNING "${flag}: expected exit code 1, got '${rc}':\n${all}")
    math(EXPR failures "${failures} + 1")
  else()
    string(FIND "${err}" "deepthermo_cli: " prefix_at)
    string(FIND "${err}" "${expected}" at)
    if(prefix_at EQUAL -1 OR at EQUAL -1)
      message(WARNING "${flag}: stderr lacks 'deepthermo_cli: ' or "
                      "'${expected}':\n${all}")
      math(EXPR failures "${failures} + 1")
    endif()
  endif()
  string(FIND "${all}" "pretrain:" pretrained)
  if(NOT pretrained EQUAL -1)
    message(WARNING "${flag}: rejected only after pretraining:\n${all}")
    math(EXPR failures "${failures} + 1")
  endif()
endforeach()

if(failures GREATER 0)
  message(FATAL_ERROR "test_cli_rejects_input: ${failures} case(s) failed")
endif()
