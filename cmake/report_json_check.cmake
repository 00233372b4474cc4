# E2E check for the machine-readable JSON report emission: a single-run
# --report-json must validate against the checked-in mini-schema
# (cmake/report_schema.json, enforced by cmake/check_report_json.py).
#
# Invoked by CTest as:
#   cmake -DAFP_CLI=... -DPYTHON=... -DSCHEMA_DIR=... -DWORK_DIR=... -P report_json_check.cmake
if(NOT AFP_CLI OR NOT PYTHON OR NOT SCHEMA_DIR OR NOT WORK_DIR)
  message(FATAL_ERROR
    "usage: cmake -DAFP_CLI=... -DPYTHON=... -DSCHEMA_DIR=... -DWORK_DIR=... -P report_json_check.cmake")
endif()
file(MAKE_DIRECTORY "${WORK_DIR}")
set(report "${WORK_DIR}/report.json")

execute_process(
  COMMAND ${AFP_CLI} floorplan ota_small --baseline pt --opt replicas=3
          --iters 60 --seed 11 --report-json ${report}
  RESULT_VARIABLE rc
  OUTPUT_QUIET
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "afp_cli --report-json run failed: ${err}")
endif()

execute_process(
  COMMAND ${PYTHON} ${SCHEMA_DIR}/check_report_json.py
          ${SCHEMA_DIR}/report_schema.json ${report} report
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "report JSON violates the schema: ${err}")
endif()
message(STATUS "${out}")
