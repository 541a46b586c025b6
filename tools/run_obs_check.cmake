# End-to-end observability check, run as a ctest (label "obs"): drive pss_run
# with trace=/metrics=/manifest=/prom= on a tiny configuration, then
# schema-validate every artifact with tools/validate_manifest.py (the prom
# sidecar is the Prometheus-exposition smoke test).
#
# Expected -D inputs: PSS_RUN, VALIDATOR, PYTHON, WORK_DIR.

foreach(var PSS_RUN VALIDATOR PYTHON WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "run_obs_check.cmake: missing -D${var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(trace "${WORK_DIR}/trace.json")
set(metrics "${WORK_DIR}/metrics.json")
set(manifest "${WORK_DIR}/manifest.json")
set(prom "${WORK_DIR}/metrics.prom")

execute_process(
  COMMAND "${PSS_RUN}" mode=train neurons=20 train=8 label=8 eval=8 seed=3
          trace=${trace} metrics=${metrics} manifest=${manifest}
          prom=${prom}
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE run_rc
  OUTPUT_VARIABLE run_out
  ERROR_VARIABLE run_err)
if(NOT run_rc EQUAL 0)
  message(FATAL_ERROR "pss_run failed (${run_rc}):\n${run_out}\n${run_err}")
endif()

foreach(artifact ${trace} ${metrics} ${manifest} ${prom})
  if(NOT EXISTS "${artifact}")
    message(FATAL_ERROR "pss_run did not write ${artifact}:\n${run_out}")
  endif()
endforeach()

execute_process(
  COMMAND "${PYTHON}" "${VALIDATOR}" "${trace}" "${metrics}" "${manifest}"
          "${prom}"
  RESULT_VARIABLE validate_rc
  OUTPUT_VARIABLE validate_out
  ERROR_VARIABLE validate_err)
if(NOT validate_rc EQUAL 0)
  message(FATAL_ERROR
          "artifact validation failed:\n${validate_out}\n${validate_err}")
endif()
message(STATUS "obs artifacts valid:\n${validate_out}")
