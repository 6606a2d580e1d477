# deepthermo_cli, a bench and an example must reject bad input with exit
# code 1 and a one-line "<program>: <message>", before they run
# anything: no abort (exit 134), no pretraining first.
#
# Run via `cmake -P` from ctest (see tests/CMakeLists.txt).
# Required -D variables: CLI, BENCH and EXAMPLE (paths to the
# deepthermo_cli, bench_t1_throughput and dos_of_hea binaries).

foreach(var CLI BENCH EXAMPLE)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "test_cli_rejects_input: -D${var}=... is required")
  endif()
endforeach()

# program | flag | text the stderr message must contain
set(cases
  "${CLI}|--cellz=3|did you mean 'cells'"
  "${CLI}|--t_points=0|t_points"
  "${CLI}|--t_lo=-0.1|t_lo"
  "${CLI}|--log_f_final=0|log_f_final"
  "${CLI}|--exchange_interval=0|exchange_interval"
  "${CLI}|--telemetry=rejected.csv|JSONL"
  "${BENCH}|--cells=4294967298|cells"
  "${EXAMPLE}|--seed=-1|seed"
)

set(failures 0)
foreach(case IN LISTS cases)
  string(REPLACE "|" ";" parts "${case}")
  list(GET parts 0 program)
  list(GET parts 1 flag)
  list(GET parts 2 expected)
  get_filename_component(name "${program}" NAME)

  execute_process(
    COMMAND "${program}" "${flag}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    TIMEOUT 60)
  set(all "${out}${err}")

  if(NOT rc EQUAL 1)
    message(WARNING "${name} ${flag}: expected exit code 1, got '${rc}':\n"
                    "${all}")
    math(EXPR failures "${failures} + 1")
  else()
    string(FIND "${err}" "${name}: " prefix_at)
    string(FIND "${err}" "${expected}" at)
    if(prefix_at EQUAL -1 OR at EQUAL -1)
      message(WARNING "${name} ${flag}: stderr lacks '${name}: ' or "
                      "'${expected}':\n${all}")
      math(EXPR failures "${failures} + 1")
    endif()
  endif()
  string(FIND "${all}" "pretrain:" pretrained)
  if(NOT pretrained EQUAL -1)
    message(WARNING "${name} ${flag}: rejected only after pretraining:\n"
                    "${all}")
    math(EXPR failures "${failures} + 1")
  endif()
endforeach()

if(failures GREATER 0)
  message(FATAL_ERROR "test_cli_rejects_input: ${failures} case(s) failed")
endif()
