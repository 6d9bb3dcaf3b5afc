# Bounded torture smoke, run as a ctest (torture_smoke, in the CI
# release leg). Drives the torture bench on a small campaign and
# checks the three properties the recovery oracle promises:
#
#   1. A clean multi-error campaign (overlapping latent windows, errors
#      landing during recovery) reports zero divergences and exits 0,
#      byte-identically across --jobs=1 and --jobs=8.
#   2. An injected oracle violation (ACR_TEST_CORRUPT_RECOVERY) turns
#      into a structured diagnostic plus a shrunk minimal-FaultPlan
#      repro line — and a nonzero exit — instead of an abort.
#   3. The campaign knobs reach the run through the environment path
#      (ACR_TORTURE_* shares the flags' strict parser).
#
# Invoke with
#   cmake -DBENCH=<path to torture> -DOUT=<scratch dir>
#         -P torture_smoke.cmake

foreach(var BENCH OUT)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "torture_smoke.cmake needs -D${var}=...")
    endif()
endforeach()

file(MAKE_DIRECTORY "${OUT}")

# Small grid: one workload, both modes, global coordination, one
# latency, two seeds — overlap regime (8 errors vs 5 checkpoints).
set(campaign
    --workloads=is --modes=ckpt,reckpt --coords=global,local
    --lats=0.5 --errors=8 --checkpoints=5 --seeds=2 --oracle=on)

function(run_torture output expect_status)
    execute_process(
        COMMAND "${BENCH}" ${campaign} ${ARGN}
        OUTPUT_FILE "${output}"
        ERROR_FILE "${output}.stderr"
        RESULT_VARIABLE status)
    if(NOT status EQUAL ${expect_status})
        file(READ "${output}.stderr" stderr)
        message(FATAL_ERROR
                "${BENCH} ${ARGN}: expected exit ${expect_status}, "
                "got ${status}:\n${stderr}")
    endif()
endfunction()

# 1. Clean campaign, deterministic across parallelism.
run_torture("${OUT}/jobs1.txt" 0 --jobs=1)
run_torture("${OUT}/jobs8.txt" 0 --jobs=8)
execute_process(
    COMMAND "${CMAKE_COMMAND}" -E compare_files
            "${OUT}/jobs1.txt" "${OUT}/jobs8.txt"
    RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR
            "torture --jobs=1 and --jobs=8 rendered different output")
endif()
file(READ "${OUT}/jobs1.txt" clean)
if(NOT clean MATCHES "0 divergences")
    message(FATAL_ERROR
            "clean campaign did not report zero divergences:\n${clean}")
endif()

# 2. Injected oracle violation: structured report + shrunk repro,
#    exit 4 (the torture verdict), no abort.
execute_process(
    COMMAND "${CMAKE_COMMAND}" -E env ACR_TEST_CORRUPT_RECOVERY=1
            "${BENCH}" ${campaign} --modes=reckpt --coords=global
            --seeds=1 --jobs=1
    OUTPUT_FILE "${OUT}/violation.txt"
    ERROR_FILE "${OUT}/violation.stderr"
    RESULT_VARIABLE status)
if(NOT status EQUAL 4)
    message(FATAL_ERROR
            "injected violation: expected exit 4, got ${status}")
endif()
file(READ "${OUT}/violation.stderr" stderr)
if(NOT stderr MATCHES "\\[oracle\\] memory-word")
    message(FATAL_ERROR
            "no structured memory-word diagnostic:\n${stderr}")
endif()
if(NOT stderr MATCHES "\\[torture\\] repro: torture ")
    message(FATAL_ERROR "no shrunk repro line:\n${stderr}")
endif()
if(NOT stderr MATCHES "--event-mask=")
    message(FATAL_ERROR
            "repro line carries no shrunk event mask:\n${stderr}")
endif()

# 3. Environment path: ACR_TORTURE_ERRORS must flow through the same
#    strict parser as --errors (a bad value dies with a parse error,
#    a good one shows up in the rendered header).
execute_process(
    COMMAND "${CMAKE_COMMAND}" -E env ACR_TORTURE_ERRORS=nope
            "${BENCH}" ${campaign} --jobs=1
    OUTPUT_QUIET
    ERROR_VARIABLE stderr
    RESULT_VARIABLE status)
if(status EQUAL 0)
    message(FATAL_ERROR "ACR_TORTURE_ERRORS=nope was accepted")
endif()
if(NOT stderr MATCHES "ACR_TORTURE_ERRORS")
    message(FATAL_ERROR
            "parse error does not name the variable:\n${stderr}")
endif()

message(STATUS "torture smoke: clean campaign deterministic, "
               "violation reported and shrunk, env path strict")
