# Chaos-soak smoke: afp_loadgen --spawn starts afpd with aggressive
# resilience knobs (1 s idle reap, 2 s write deadline, 16-frame queue
# bound, strike limit 8) and, with --chaos, runs a seeded mix of
# misbehaving sessions — malformed floods, raw junk, mid-frame stalls,
# half-open sockets, slow readers, random disconnects — alongside
# well-behaved client sessions.  The driver itself asserts the clients'
# served bytes match an in-process pipeline run, that no result frame was
# dropped, and that SIGTERM drains cleanly; this script additionally
# bitwise-diffs the served reports against `afp_cli --report-json` (modulo
# the timings line), then runs the SIGKILL + restart journal-replay leg
# (--kill-test).
#
# Invoked by CTest as:
#   cmake -DAFP_CLI=<path> -DAFPD=<path> -DLOADGEN=<path> -DWORK_DIR=<dir>
#         -P chaos_smoke.cmake
if(NOT AFP_CLI OR NOT AFPD OR NOT LOADGEN OR NOT WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DAFP_CLI=... -DAFPD=... -DLOADGEN=... "
                      "-DWORK_DIR=... -P chaos_smoke.cmake")
endif()
file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

set(seeds 7 8)
set(iters 60)

# Reference reports from the CLI path.
foreach(seed IN LISTS seeds)
  execute_process(
    COMMAND ${AFP_CLI} floorplan ota_small --baseline sa --iters ${iters}
            --seed ${seed} --report-json ${WORK_DIR}/cli_seed${seed}.json
    RESULT_VARIABLE rc
    OUTPUT_QUIET
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "afp_cli seed ${seed} failed (${rc}): ${err}")
  endif()
endforeach()

# The chaos soak: >=1 stalled reader, >=1 half-open socket, >=1 malformed
# flood ride in the 6-actor rotation.
execute_process(
  COMMAND ${LOADGEN} --spawn ${AFPD} --socket ${WORK_DIR}/afpd.sock
          --clients 3 --seeds 7,8 --chaos 6 --iters ${iters}
          --write-reports ${WORK_DIR}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "afp_loadgen --chaos failed (${rc}):\n${out}\n${err}")
endif()
message(STATUS "${out}")

# Bitwise parity for the well-behaved sessions, daemon vs CLI, modulo the
# timings/tt_cache lines.
foreach(seed IN LISTS seeds)
  foreach(side cli report)
    file(READ ${WORK_DIR}/${side}_seed${seed}.json ${side}_bytes)
    string(REGEX REPLACE "\"timings\": {[^}]*}" "\"timings\": {}"
           ${side}_bytes "${${side}_bytes}")
    string(REGEX REPLACE "\"tt_cache\": {[^}]*}" "\"tt_cache\": {}"
           ${side}_bytes "${${side}_bytes}")
  endforeach()
  if(NOT cli_bytes STREQUAL report_bytes)
    message(FATAL_ERROR "seed ${seed}: report served under chaos differs "
                        "from afp_cli --report-json beyond the timings line")
  endif()
endforeach()
message(STATUS "served reports bitwise-match afp_cli under chaos")

# Crash-recovery leg: SIGKILL mid-job, restart on the same journal, every
# orphaned job surfaced as a structured internal error.
execute_process(
  COMMAND ${LOADGEN} --spawn ${AFPD} --socket ${WORK_DIR}/afpd_kill.sock
          --kill-test
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "afp_loadgen --kill-test failed (${rc}):\n${out}\n${err}")
endif()
message(STATUS "${out}")
