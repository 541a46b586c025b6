# End-to-end pss_run checks, run as a ctest (labels "graph;robust"):
#  1. evaluation sizes its confusion matrix over the model's classes and the
#     data's labels together — a class no neuron was labelled with counts as
#     an error instead of aborting the run, in train and in infer mode;
#  2. stacked runs honour checkpoint=/checkpoint_every=/resume=/workers=/
#     batch=: a killed conv/pool/WTA run leaves a PSSCKPT1 version-2 file,
#     and resuming from it produces a model byte-identical to the
#     uninterrupted run's, sequentially and with minibatch STDP on 3 workers.
#
# Expected -D inputs: PSS_RUN, WORK_DIR.

foreach(var PSS_RUN WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "run_pss_run_check.cmake: missing -D${var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# Runs pss_run with ARGN; fails the test unless the exit code is
# `expect_rc` ("ok" = 0, "fail" = non-zero).
function(pss_run expect_rc)
  execute_process(
    COMMAND "${PSS_RUN}" ${ARGN}
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(expect_rc STREQUAL "ok" AND NOT rc EQUAL 0)
    message(FATAL_ERROR "pss_run ${ARGN} failed (${rc}):\n${out}\n${err}")
  endif()
  if(expect_rc STREQUAL "fail" AND rc EQUAL 0)
    message(FATAL_ERROR "pss_run ${ARGN} was expected to fail:\n${out}")
  endif()
endfunction()

# 1. Classes the labels never cover.
pss_run(ok neurons=20 train=20 label=20 eval=20)
pss_run(ok neurons=5 train=20 label=30 eval=30 snapshot=five.bin)
pss_run(ok mode=infer neurons=5 label=30 eval=30 snapshot=five.bin)

# 2. Stacked kill -> resume. The layers spec goes through a config file: a
# CMake list would split it at its ';' separators.
file(WRITE "${WORK_DIR}/stack.cfg"
     "layers=conv:filters=4,kernel=7,stride=3;pool:window=2;wta:neurons=20\n")
foreach(mode sequential minibatch)
  set(common stack.cfg train=12 label=12 eval=12 seed=4)
  if(mode STREQUAL "minibatch")
    list(APPEND common workers=3 batch=4)
    set(kill_after 1)   # train.interrupt hits once per batch
  else()
    set(kill_after 6)   # ... and once per presentation
  endif()
  pss_run(ok ${common} snapshot=${mode}_full.bin)
  set(kill "train.interrupt:rate=1,after=${kill_after},count=1,kind=fatal")
  pss_run(fail ${common} checkpoint_every=4 checkpoint=${mode}.ckpt
          faults=${kill})
  if(NOT EXISTS "${WORK_DIR}/${mode}.ckpt")
    message(FATAL_ERROR "${mode}: the killed stacked run wrote no checkpoint")
  endif()
  file(READ "${WORK_DIR}/${mode}.ckpt" header LIMIT 12 HEX)
  # "PSSCKPT1" + little-endian u32 version 2.
  if(NOT header STREQUAL "505353434b50543102000000")
    message(FATAL_ERROR "${mode}: checkpoint header ${header} is not "
                        "PSSCKPT1 version 2")
  endif()
  file(RENAME "${WORK_DIR}/${mode}.ckpt" "${WORK_DIR}/${mode}_killed.ckpt")
  pss_run(ok ${common} checkpoint_every=4 checkpoint=${mode}.ckpt
          resume=${mode}_killed.ckpt snapshot=${mode}_resumed.bin)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            "${WORK_DIR}/${mode}_full.bin" "${WORK_DIR}/${mode}_resumed.bin"
    RESULT_VARIABLE same)
  if(NOT same EQUAL 0)
    message(FATAL_ERROR "${mode}: resumed stacked model differs from the "
                        "uninterrupted run's")
  endif()
endforeach()
message(STATUS "pss_run end-to-end checks passed")
