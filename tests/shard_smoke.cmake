# End-to-end sharding determinism check, run as a ctest (shard_smoke_*,
# in the CI release leg). Given a bench binary (-DBENCH=...) and
# a workload subset (-DWORKLOADS=...), verifies the BenchMain
# determinism contract: the rendered stdout of
#
#   --jobs=1                                  (reference)
#   --shard=i/2 --cache=si, cat s0 s1 > all,
#     then --cache=all                        (static sharding)
#   --forks=2                                 (forked local workers)
#
# is byte-identical, that a shard leg prints nothing on stdout and
# needs a --cache, that the render of the concatenated caches
# simulates nothing and warns about nothing, that --merge is gone, and
# that ACR_JOBS goes through the same strict parser as --jobs (garbage
# exits 1 naming the variable). Invoke with
#   cmake -DBENCH=<path> -DWORKLOADS=<a,b> -DOUT=<scratch dir>
#         -P shard_smoke.cmake

foreach(var BENCH WORKLOADS OUT)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "shard_smoke.cmake needs -D${var}=...")
    endif()
endforeach()

file(REMOVE_RECURSE "${OUT}")
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

foreach(leg 0 1)
    run_bench("${OUT}/shard${leg}.txt" --shard=${leg}/2 --jobs=2
              "--cache=${OUT}/shard${leg}.cache")
    file(SIZE "${OUT}/shard${leg}.txt" leg_bytes)
    if(NOT leg_bytes EQUAL 0)
        message(FATAL_ERROR "--shard=${leg}/2 printed on stdout")
    endif()
endforeach()
execute_process(
    COMMAND "${CMAKE_COMMAND}" -E cat
            "${OUT}/shard0.cache" "${OUT}/shard1.cache"
    OUTPUT_FILE "${OUT}/all.cache"
    RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "cannot concatenate the shard caches")
endif()
execute_process(
    COMMAND "${BENCH}" "--workloads=${WORKLOADS}"
            "--cache=${OUT}/all.cache"
    OUTPUT_FILE "${OUT}/merged.txt"
    ERROR_VARIABLE stderr
    RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "render of the shard caches failed (${status}):\n"
                        "${stderr}")
endif()
expect_identical("${OUT}/reference.txt" "${OUT}/merged.txt"
                 "sharded (--shard legs' caches, concatenated)")
if(NOT stderr MATCHES "cache: [0-9]+ hit\\(s\\), 0 miss\\(es\\), 0 insert\\(s\\)")
    message(FATAL_ERROR "render of the shard caches simulated:\n${stderr}")
endif()
if(stderr MATCHES "warn:")
    message(FATAL_ERROR "render of the shard caches warned:\n${stderr}")
endif()

# A shard leg's only output is its cache file, so it needs one; and
# there is no shard-record reader any more.
function(expect_fatal pattern)
    execute_process(
        COMMAND "${CMAKE_COMMAND}" -E env --unset=ACR_CACHE
                "${BENCH}" "--workloads=${WORKLOADS}" ${ARGN}
        OUTPUT_QUIET
        ERROR_VARIABLE stderr
        RESULT_VARIABLE status)
    if(NOT status EQUAL 1 OR NOT stderr MATCHES "${pattern}")
        message(FATAL_ERROR "${ARGN} exited ${status}, want 1 with "
                            "'${pattern}':\n${stderr}")
    endif()
endfunction()
expect_fatal("--cache" --shard=0/2)
expect_fatal("unknown option" --merge=x)

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

message(STATUS "shard smoke: concatenated shard caches and forked "
               "output byte-identical, ACR_JOBS parsed strictly")
