# Regression test for the classic daemon-adjacent CLI bug: piping
# `afp_cli floorplan ... --report-json out.json` into a consumer that exits
# early (`| head -1`) used to kill the CLI with SIGPIPE (shell status 141),
# losing the report file and any error message.  The CLI now ignores
# SIGPIPE, detects the EPIPE write failure at exit, prints a stderr note,
# exits nonzero — and the --report-json file is written regardless.
#
# Invoked by CTest as:
#   cmake -DAFP_CLI=<path> -DWORK_DIR=<dir> -P sigpipe_check.cmake
if(NOT AFP_CLI OR NOT WORK_DIR)
  message(FATAL_ERROR
    "usage: cmake -DAFP_CLI=... -DWORK_DIR=... -P sigpipe_check.cmake")
endif()
file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

# `cmake -E true` closes the read end of the pipe within its startup
# (tens of ms) while the 2M-iteration search keeps the CLI busy for
# ~0.5 s — so the CLI's stdout flush is guaranteed to hit a dead pipe.
# execute_process chains COMMANDs with a pipe, like a shell.
execute_process(
  COMMAND ${AFP_CLI} floorplan ota_small --baseline sa --iters 2000000
          --seed 7 --report-json ${WORK_DIR}/report.json
  COMMAND ${CMAKE_COMMAND} -E true
  RESULTS_VARIABLE rcs
  OUTPUT_QUIET
  ERROR_VARIABLE err)
list(GET rcs 0 cli_rc)
# A signal death shows up as a message string ("Child killed"), not a
# number: pre-fix this is exactly what happened.  Post-fix the EPIPE is
# detected at the final flush and reported as a plain exit 1.
if(NOT cli_rc EQUAL 1)
  message(FATAL_ERROR
    "CLI with a broken stdout pipe exited '${cli_rc}' (wanted 1): ${err}")
endif()
if(NOT err MATCHES "writing to stdout failed")
  message(FATAL_ERROR "exit 1 without the stdout-failure note: ${err}")
endif()
if(NOT EXISTS ${WORK_DIR}/report.json)
  message(FATAL_ERROR "broken pipe lost the --report-json file")
endif()
file(READ ${WORK_DIR}/report.json report)
if(NOT report MATCHES "\"schema_version\"")
  message(FATAL_ERROR "report.json written but truncated: ${report}")
endif()
message(STATUS "broken stdout pipe: clean exit 1, report.json intact")

# A file the CLI cannot write is an error too: `graph --dot` into a missing
# directory once printed "wrote ..." and exited 0 with nothing on disk.
execute_process(
  COMMAND ${AFP_CLI} graph ota1 --dot ${WORK_DIR}/no_such_dir/g.dot
  RESULT_VARIABLE rc
  OUTPUT_QUIET
  ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "unwritable --dot path exited '${rc}' (wanted 1): ${err}")
endif()
if(NOT err MATCHES "no_such_dir/g.dot")
  message(FATAL_ERROR "the --dot write error does not name the path: ${err}")
endif()
message(STATUS "unwritable --dot path: exit 1 naming the path")
