# End-to-end sharding determinism check, run as a ctest (shard_smoke_*,
# in the CI release leg). Given a bench binary (-DBENCH=...) and
# a workload subset (-DWORKLOADS=...), verifies the BenchMain
# determinism contract: the rendered stdout of
#
#   --jobs=1                                (reference)
#   --shard=0/2 + --shard=1/2 --> --merge   (static sharding)
#   --forks=2                               (forked local workers)
#
# is byte-identical, and that ACR_JOBS goes through the same strict
# parser as --jobs (garbage exits 1 naming the variable). Invoke with
#   cmake -DBENCH=<path> -DWORKLOADS=<a,b> -DOUT=<scratch dir>
#         -P shard_smoke.cmake

foreach(var BENCH WORKLOADS OUT)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "shard_smoke.cmake needs -D${var}=...")
    endif()
endforeach()

file(MAKE_DIRECTORY "${OUT}")

function(run_bench output)
    execute_process(
        COMMAND "${BENCH}" "--workloads=${WORKLOADS}" ${ARGN}
        OUTPUT_FILE "${output}"
        ERROR_VARIABLE stderr
        RESULT_VARIABLE status)
    if(NOT status EQUAL 0)
        message(FATAL_ERROR
                "${BENCH} ${ARGN} failed (${status}):\n${stderr}")
    endif()
endfunction()

function(expect_identical reference candidate what)
    execute_process(
        COMMAND "${CMAKE_COMMAND}" -E compare_files
                "${reference}" "${candidate}"
        RESULT_VARIABLE status)
    if(NOT status EQUAL 0)
        message(FATAL_ERROR
                "${what} output differs from the --jobs=1 reference "
                "(${reference} vs ${candidate})")
    endif()
endfunction()

run_bench("${OUT}/reference.txt" --jobs=1)

run_bench("${OUT}/shard0.ndjson" --shard=0/2 --jobs=2)
run_bench("${OUT}/shard1.ndjson" --shard=1/2 --jobs=2)
run_bench("${OUT}/merged.txt"
          "--merge=${OUT}/shard0.ndjson,${OUT}/shard1.ndjson")
expect_identical("${OUT}/reference.txt" "${OUT}/merged.txt"
                 "sharded (--shard + --merge)")

run_bench("${OUT}/forked.txt" --forks=2)
expect_identical("${OUT}/reference.txt" "${OUT}/forked.txt"
                 "forked (--forks=2)")

# ACR_JOBS is read like every other environment knob: a garbage value
# must fail loudly, naming the variable, instead of falling back.
execute_process(
    COMMAND "${CMAKE_COMMAND}" -E env ACR_JOBS=4x
            "${BENCH}" "--workloads=${WORKLOADS}"
    OUTPUT_QUIET
    ERROR_VARIABLE stderr
    RESULT_VARIABLE status)
if(NOT status EQUAL 1)
    message(FATAL_ERROR "ACR_JOBS=4x exited ${status}, want 1:\n${stderr}")
endif()
if(NOT stderr MATCHES "ACR_JOBS")
    message(FATAL_ERROR
            "parse error does not name the variable:\n${stderr}")
endif()

message(STATUS "shard smoke: sharded and forked output byte-identical, "
               "ACR_JOBS parsed strictly")
