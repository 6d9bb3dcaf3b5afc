# End-to-end check of the pluggable checkpoint-store backends
# (DESIGN.md §14), run as a ctest (backend_smoke, in the CI release
# leg). Against the fig_backend bench (-DBENCH=...) and a workload
# subset (-DWORKLOADS=...), it verifies:
#
#   * the backend × workload × error grid runs clean — the recovery
#     oracle is on by default for every checkpointing point and the
#     process exits 0 (a divergence would exit 4);
#   * the BenchMain determinism contract holds across backends: the
#     rendered stdout of --jobs=1, --jobs=8, and --cache over the
#     concatenated cache files of two --shard legs is byte-identical,
#     with zero misses;
#   * the result cache distinguishes backends: a warm re-run of the
#     same backend selection serves 100% hits with zero misses, while
#     the same experiments under a different backend miss (only the
#     backend field of the point encoding differs, so a collision
#     would silently serve one backend's physics as another's).
#
# Invoke with
#   cmake -DBENCH=<path> -DWORKLOADS=<a,b> -DOUT=<scratch dir>
#         -P backend_smoke.cmake

foreach(var BENCH WORKLOADS OUT)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "backend_smoke.cmake needs -D${var}=...")
    endif()
endforeach()

file(REMOVE_RECURSE "${OUT}")
file(MAKE_DIRECTORY "${OUT}")
set(CACHE_FILE "${OUT}/results.cache")

# Run the bench, requiring exit 0 (oracle divergences exit 4, so this
# doubles as the zero-divergence assertion); extra args pass through.
function(run_case output errfile)
    execute_process(
        COMMAND "${BENCH}" "--workloads=${WORKLOADS}" ${ARGN}
        OUTPUT_FILE "${output}"
        ERROR_FILE "${errfile}"
        RESULT_VARIABLE status)
    if(NOT status EQUAL 0)
        file(READ "${errfile}" stderr)
        message(FATAL_ERROR
                "${BENCH} ${ARGN} exited ${status} (expected 0 — 4 "
                "would be an oracle divergence):\n${stderr}")
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

# Parse "[sweep] N points" and "cache: H hit(s), M miss(es), I
# insert(s)" out of a stderr file into <prefix>_{points,hits,misses,
# inserts} in the caller's scope.
function(read_stats errfile prefix)
    file(READ "${errfile}" content)
    if(NOT content MATCHES "\\[sweep\\] ([0-9]+) points")
        message(FATAL_ERROR "no point count in '${errfile}':\n${content}")
    endif()
    set(${prefix}_points "${CMAKE_MATCH_1}" PARENT_SCOPE)
    if(NOT content MATCHES
       "cache: ([0-9]+) hit\\(s\\), ([0-9]+) miss\\(es\\), ([0-9]+) insert\\(s\\)")
        message(FATAL_ERROR "no cache stats in '${errfile}':\n${content}")
    endif()
    set(${prefix}_hits "${CMAKE_MATCH_1}" PARENT_SCOPE)
    set(${prefix}_misses "${CMAKE_MATCH_2}" PARENT_SCOPE)
    set(${prefix}_inserts "${CMAKE_MATCH_3}" PARENT_SCOPE)
endfunction()

function(expect_stat actual expected what)
    if(NOT actual STREQUAL expected)
        message(FATAL_ERROR "${what}: got ${actual}, want ${expected}")
    endif()
endfunction()

# --- Full backend grid: clean, deterministic across run modes ---
set(GRID --backends=log,replicated,nvm --errors=0,1)

run_case("${OUT}/reference.txt" "${OUT}/reference.err" ${GRID} --jobs=1)

run_case("${OUT}/jobs8.txt" "${OUT}/jobs8.err" ${GRID} --jobs=8)
expect_identical("${OUT}/reference.txt" "${OUT}/jobs8.txt" "--jobs=8")

run_case("${OUT}/shard0.txt" "${OUT}/shard0.err" ${GRID}
         --shard=0/2 --jobs=2 "--cache=${OUT}/shard0.cache")
run_case("${OUT}/shard1.txt" "${OUT}/shard1.err" ${GRID}
         --shard=1/2 --jobs=2 "--cache=${OUT}/shard1.cache")
execute_process(
    COMMAND "${CMAKE_COMMAND}" -E cat
            "${OUT}/shard0.cache" "${OUT}/shard1.cache"
    OUTPUT_FILE "${OUT}/all.cache")
run_case("${OUT}/merged.txt" "${OUT}/merged.err" ${GRID}
         "--cache=${OUT}/all.cache")
expect_identical("${OUT}/reference.txt" "${OUT}/merged.txt"
                 "2-shard caches, concatenated")
read_stats("${OUT}/merged.err" merged)
expect_stat("${merged_misses}" 0 "2-shard render misses")
file(READ "${OUT}/merged.err" merged_err)
if(merged_err MATCHES "warn:")
    message(FATAL_ERROR "2-shard render warned:\n${merged_err}")
endif()

# --- Cache keys distinguish backends ---
# Cold single-backend run populates the cache ...
run_case("${OUT}/log_cold.txt" "${OUT}/log_cold.err"
         --backends=log --errors=1 --jobs=2 "--cache=${CACHE_FILE}")
read_stats("${OUT}/log_cold.err" cold)
expect_stat("${cold_hits}" 0 "cold log-backend hits")
expect_stat("${cold_misses}" "${cold_points}" "cold log-backend misses")

# ... a warm re-run of the SAME backend is 100% hits ...
run_case("${OUT}/log_warm.txt" "${OUT}/log_warm.err"
         --backends=log --errors=1 --jobs=2 "--cache=${CACHE_FILE}")
expect_identical("${OUT}/log_cold.txt" "${OUT}/log_warm.txt"
                 "warm same-backend")
read_stats("${OUT}/log_warm.err" warm)
expect_stat("${warm_hits}" "${cold_points}" "warm same-backend hits")
expect_stat("${warm_misses}" 0 "warm same-backend misses")

# ... and the same experiments under a DIFFERENT backend miss (only
# the shared NoCkpt baseline — which stores nothing and keeps the
# default backend — may hit).
run_case("${OUT}/nvm.txt" "${OUT}/nvm.err"
         --backends=nvm --errors=1 --jobs=2 "--cache=${CACHE_FILE}")
read_stats("${OUT}/nvm.err" nvm)
if(nvm_misses EQUAL 0)
    message(FATAL_ERROR
            "differing-backend run had zero cache misses: the result "
            "cache is not keying on the backend field")
endif()

message(STATUS
        "backend smoke: grid clean under the oracle, byte-identical "
        "across --jobs/--shard, cache keys distinguish backends")
