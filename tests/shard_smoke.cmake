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
# simulates nothing and warns about nothing, that a missing leg renders
# byte-identically by simulating its points as misses (and the next
# render is all hits), that --merge is gone, and that ACR_JOBS goes
# through the same strict parser as --jobs (garbage exits 1 naming the
# variable). Invoke with
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
# Render the grid from the cache file ${cache} into ${output}; the
# counts of its "cache: H hit(s), M miss(es), I insert(s)" line land in
# cache_misses and cache_inserts, and its stderr in render_stderr.
function(render_from cache output)
    execute_process(
        COMMAND "${BENCH}" "--workloads=${WORKLOADS}" "--cache=${cache}"
        OUTPUT_FILE "${output}"
        ERROR_VARIABLE stderr
        RESULT_VARIABLE status)
    if(NOT status EQUAL 0)
        message(FATAL_ERROR "render of ${cache} failed (${status}):\n"
                            "${stderr}")
    endif()
    if(NOT stderr MATCHES "cache: [0-9]+ hit\\(s\\), ([0-9]+) miss\\(es\\), ([0-9]+) insert\\(s\\)")
        message(FATAL_ERROR "render of ${cache} reported no cache "
                            "counts:\n${stderr}")
    endif()
    set(cache_misses ${CMAKE_MATCH_1} PARENT_SCOPE)
    set(cache_inserts ${CMAKE_MATCH_2} PARENT_SCOPE)
    set(render_stderr "${stderr}" PARENT_SCOPE)
endfunction()

render_from("${OUT}/all.cache" "${OUT}/merged.txt")
expect_identical("${OUT}/reference.txt" "${OUT}/merged.txt"
                 "sharded (--shard legs' caches, concatenated)")
if(NOT cache_misses EQUAL 0 OR NOT cache_inserts EQUAL 0)
    message(FATAL_ERROR "render of the shard caches simulated:\n"
                        "${render_stderr}")
endif()
if(render_stderr MATCHES "warn:")
    message(FATAL_ERROR "render of the shard caches warned:\n"
                        "${render_stderr}")
endif()

# A lost leg costs simulation, never output: rendering from leg 0's
# file alone simulates leg 1's points as misses and appends them, so
# the output still matches and the next render is all hits.
execute_process(
    COMMAND "${CMAKE_COMMAND}" -E copy
            "${OUT}/shard0.cache" "${OUT}/partial.cache"
    RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "cannot copy leg 0's cache")
endif()
render_from("${OUT}/partial.cache" "${OUT}/partial.txt")
expect_identical("${OUT}/reference.txt" "${OUT}/partial.txt"
                 "render with a missing --shard leg")
if(cache_misses EQUAL 0 OR NOT cache_misses EQUAL cache_inserts)
    message(FATAL_ERROR "render with a missing leg did not simulate it "
                        "as misses:\n${render_stderr}")
endif()
render_from("${OUT}/partial.cache" "${OUT}/partial2.txt")
expect_identical("${OUT}/reference.txt" "${OUT}/partial2.txt"
                 "rerender after a missing leg")
if(NOT cache_misses EQUAL 0)
    message(FATAL_ERROR "rerender after a missing leg simulated:\n"
                        "${render_stderr}")
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

message(STATUS "shard smoke: concatenated shard caches, a missing "
               "leg and forked output byte-identical, ACR_JOBS parsed "
               "strictly")
