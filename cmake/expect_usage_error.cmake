# Smoke test for the tools' shared flag parser (tools/flags.hpp): an
# unrecognized option, a missing value, an extra argument or a malformed
# number must exit with code 2 and print the usage text (plus the offending
# flag) to stderr — never be silently ignored — for afp_cli, afpd and
# afp_loadgen alike.
#
# Invoked by CTest as:
#   cmake -DAFP_CLI=<path> -DAFPD=<path> -DLOADGEN=<path> -DWORK_DIR=<dir>
#         -P expect_usage_error.cmake
if(NOT AFP_CLI OR NOT AFPD OR NOT LOADGEN OR NOT WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DAFP_CLI=... -DAFPD=... -DLOADGEN=... "
                      "-DWORK_DIR=... -P expect_usage_error.cmake")
endif()
file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

# Runs the command in ARGN from WORK_DIR and requires exit code 2 with
# `usage_regex` on stderr within 5 s (a daemon that accepted the command
# line would serve forever instead).
function(expect_usage_error usage_regex)
  execute_process(
    COMMAND ${ARGN}
    WORKING_DIRECTORY ${WORK_DIR}
    TIMEOUT 5
    RESULT_VARIABLE rc
    OUTPUT_QUIET
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "expected exit code 2 for '${ARGN}', got ${rc}: ${err}")
  endif()
  if(NOT err MATCHES "${usage_regex}")
    message(FATAL_ERROR "no usage text for '${ARGN}': ${err}")
  endif()
endfunction()

execute_process(
  COMMAND ${AFP_CLI} floorplan ota_small --definitely-bogus
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "expected exit code 2 for an unknown flag, got ${rc}")
endif()
if(NOT err MATCHES "unknown option '--definitely-bogus'")
  message(FATAL_ERROR "stderr does not name the unknown flag: ${err}")
endif()
if(NOT err MATCHES "usage: afp")
  message(FATAL_ERROR "stderr does not contain the usage text: ${err}")
endif()
# A flag that only exists on a different command must be rejected too.
execute_process(
  COMMAND ${AFP_CLI} train --baseline sa
  RESULT_VARIABLE rc2
  OUTPUT_QUIET
  ERROR_VARIABLE err2)
if(NOT rc2 EQUAL 2)
  message(FATAL_ERROR "expected exit code 2 for a wrong-command flag, got ${rc2}")
endif()
if(NOT err2 MATCHES "unknown option '--baseline' for 'train'")
  message(FATAL_ERROR "stderr does not name the wrong-command flag: ${err2}")
endif()

# Malformed values are usage errors too: every numeric option is validated
# (historically `--seed abc` crashed with an uncaught std::invalid_argument
# from std::stoul, and integers above INT_MAX wrapped silently), an unknown
# --baseline must name the registry, and a bad --opt key must name the
# optimizer's known options.  All exit 2 + usage.
set(bad_invocations
    "floorplan\;ota_small\;--seed\;abc"
    "floorplan\;ota_small\;--iters\;12x"
    "floorplan\;ota_small\;--restarts\;-3"
    "floorplan\;ota_small\;--time-budget\;soon"
    "floorplan\;ota_small\;--time-budget\;nan"
    "floorplan\;ota_small\;--time-budget\;inf"
    "floorplan\;ota_small\;--baseline\;annealing-deluxe"
    "floorplan\;ota_small\;--opt\;bogus_key=1"
    "floorplan\;ota_small\;--baseline\;sa\;--opt\;iterations=many"
    "floorplan\;ota_small\;--baseline\;pt\;--opt\;replicas=1"
    "floorplan\;ota_small\;--baseline\;sa\;--opt\;iterations=-5"
    "floorplan\;ota_small\;--restarts\;4\;--time-budget\;0.1"
    "floorplan\;ota_small\;--batch\;nowhere\;--svg\;x.svg"
    "floorplan\;ota_small\;--baseline\;sa\;--opt\;replicas=4"
    "floorplan\;ota_small\;--quanta\;0"
    "floorplan\;ota_small\;--quanta\;4294967298"
    "floorplan\;ota_small\;--iters\;4294967336"
    "floorplan\;ota_small\;--restarts\;4294967296"
    "floorplan\;ota_small\;--quanta\;lots"
    "floorplan\;ota_small\;--restarts\;2\;--quanta\;4"
    "floorplan\;ota_small\;--job-timeout\;0"
    "floorplan\;ota_small\;--job-timeout\;never"
    "floorplan\;ota_small\;--max-retries\;-1"
    "floorplan\;ota_small\;--max-retries\;101"
    "floorplan\;ota_small\;--checkpoint\;cp.bin"
    "floorplan\;ota_small\;--quanta\;2\;--resume"
    "train\;--episodes\;1e3"
    "eval\;ota_small\;--attempts\;0"
    # A valued flag without its value, an extra positional argument and an
    # unknown kernel tier (which once skipped the usage text).
    "floorplan\;ota_small\;--iters"
    "floorplan\;ota_small\;--report-json"
    "floorplan\;ota_small\;extra_arg"
    "floorplan\;ota_small\;--tier\;bogus")
foreach(invocation IN LISTS bad_invocations)
  expect_usage_error("usage: afp" ${AFP_CLI} ${invocation})
endforeach()
# A valued flag never takes "1" as its value: no report file named `1`.
if(EXISTS ${WORK_DIR}/1)
  message(FATAL_ERROR "a flag without its value wrote a file named '1'")
endif()

# afpd: every flag and its AFPD_* variable share one range check (these
# once wrapped or fell back to 0 and served).
foreach(invocation
    "--max-sessions\;4294967297" "--threads\;4294967298"
    "--port\;4294967296" "--port\;65536" "--base-seed\;-1"
    "--drain-grace\;abc")
  expect_usage_error("usage: afpd" ${AFPD} --socket ${WORK_DIR}/u.sock
                     ${invocation})
endforeach()
# afp_loadgen: a malformed client count or seed list once ran seed 0.
foreach(invocation "--clients\;2x" "--seeds\;7,x" "--iters\;4294967336")
  expect_usage_error("usage: afp_loadgen" ${LOADGEN}
                     --socket ${WORK_DIR}/l.sock ${invocation})
endforeach()
message(STATUS "unknown flags and malformed values rejected with exit 2")

# A boolean flag never swallows the next token: `--constrained ota_small`
# runs ota_small, with the same report as the flag after the circuit.
set(before --constrained ota_small)
set(after ota_small --constrained)
foreach(side before after)
  execute_process(
    COMMAND ${AFP_CLI} floorplan ${${side}} --iters 50
            --report-json ${WORK_DIR}/${side}.json
    RESULT_VARIABLE rc
    OUTPUT_QUIET
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
      "'floorplan ${${side}} --iters 50' failed (${rc}): ${err}")
  endif()
  file(READ ${WORK_DIR}/${side}.json ${side}_bytes)
  string(REGEX REPLACE "\"(timings|tt_cache)\": {[^}]*}" "" ${side}_bytes
         "${${side}_bytes}")
endforeach()
if(NOT before_bytes STREQUAL after_bytes)
  message(FATAL_ERROR "--constrained before the circuit changed the report")
endif()

# ------------------------------------------------- batch partial failure ---
# A manifest entry that cannot be loaded must be skipped (reported as a
# failed job, kind invalid_config), not abort the batch: a mixed batch exits
# 3 (partial failure), an all-bad batch exits 1.
file(WRITE ${WORK_DIR}/mixed_manifest.txt
     "ota_small\n/nonexistent/netlist.sp\n")
execute_process(
  COMMAND ${AFP_CLI} floorplan --batch ${WORK_DIR}/mixed_manifest.txt
          --iters 30 --seed 1
  RESULT_VARIABLE rc4
  OUTPUT_VARIABLE out4
  ERROR_VARIABLE err4)
if(NOT rc4 EQUAL 3)
  message(FATAL_ERROR
    "expected exit code 3 for a partially failed batch, got ${rc4}: ${err4}")
endif()
if(NOT err4 MATCHES "skipping '/nonexistent/netlist.sp'")
  message(FATAL_ERROR "stderr does not name the skipped entry: ${err4}")
endif()
if(NOT out4 MATCHES "invalid_config")
  message(FATAL_ERROR
    "batch table does not classify the skipped job as invalid_config: ${out4}")
endif()
file(WRITE ${WORK_DIR}/bad_manifest.txt
     "/nonexistent/a.sp\n/nonexistent/b.sp\n")
execute_process(
  COMMAND ${AFP_CLI} floorplan --batch ${WORK_DIR}/bad_manifest.txt --seed 1
  RESULT_VARIABLE rc5
  OUTPUT_QUIET
  ERROR_QUIET)
if(NOT rc5 EQUAL 1)
  message(FATAL_ERROR
    "expected exit code 1 for an all-failed batch, got ${rc5}")
endif()
message(STATUS "batch skips unloadable entries; exit 3 flags partial failure")
