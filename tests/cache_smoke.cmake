# End-to-end check of the content-addressed result cache (DESIGN.md
# §11), run as a ctest (cache_smoke_*, in the CI release leg). Against
# a bench binary (-DBENCH=...), a second bench enumerating the same
# grid (-DBENCH2=...), and a workload subset (-DWORKLOADS=...), it
# verifies the --cache contract:
#
#   * a cold run populates the cache and renders byte-identically to a
#     cache-less --jobs=1 reference;
#   * a warm run serves 100% of the grid from the cache — hit count
#     equals the point count, zero misses, zero simulations — with
#     byte-identical stdout, in --jobs, --forks, and --shard modes
#     (forked: cached points are never dealt to workers);
#   * a different bench enumerating the same experiments gets full
#     cross-bench hits from the shared file;
#   * every corruption mode degrades to recompute, never to a crash or
#     a wrong table: a flipped byte in one entry's tag and a flipped
#     digit in another entry's result each miss only that entry (and
#     the open that skipped them rewrites the file, so the next run is
#     silent and fully served), a torn final line is dropped, and a
#     header carrying a stale wire version makes the whole file cold.
#
# Invoke with
#   cmake -DBENCH=<path> -DBENCH2=<path> -DWORKLOADS=<a,b>
#         -DOUT=<scratch dir> -P cache_smoke.cmake

foreach(var BENCH BENCH2 WORKLOADS OUT)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "cache_smoke.cmake needs -D${var}=...")
    endif()
endforeach()

file(REMOVE_RECURSE "${OUT}")
file(MAKE_DIRECTORY "${OUT}")
set(CACHE_FILE "${OUT}/results.cache")

# Run a bench with a required exit status; extra args pass through.
function(run_case bench output errfile expect_status)
    execute_process(
        COMMAND "${bench}" "--workloads=${WORKLOADS}" ${ARGN}
        OUTPUT_FILE "${output}"
        ERROR_FILE "${errfile}"
        RESULT_VARIABLE status)
    if(NOT status EQUAL ${expect_status})
        file(READ "${errfile}" stderr)
        message(FATAL_ERROR
                "${bench} ${ARGN} exited ${status} "
                "(expected ${expect_status}):\n${stderr}")
    endif()
endfunction()

function(expect_identical reference candidate what)
    execute_process(
        COMMAND "${CMAKE_COMMAND}" -E compare_files
                "${reference}" "${candidate}"
        RESULT_VARIABLE status)
    if(NOT status EQUAL 0)
        message(FATAL_ERROR
                "${what} output differs from the cache-less reference "
                "(${reference} vs ${candidate})")
    endif()
endfunction()

function(expect_match file pattern what)
    file(READ "${file}" content)
    if(NOT content MATCHES "${pattern}")
        message(FATAL_ERROR
                "${what}: '${file}' does not match '${pattern}':\n"
                "${content}")
    endif()
endfunction()

function(expect_no_match file pattern what)
    file(READ "${file}" content)
    if(content MATCHES "${pattern}")
        message(FATAL_ERROR
                "${what}: '${file}' matches '${pattern}':\n${content}")
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

run_case("${BENCH}" "${OUT}/reference.txt" "${OUT}/reference.err" 0
         --jobs=1)

# --- Cold run: everything misses, everything is inserted ---
run_case("${BENCH}" "${OUT}/cold.txt" "${OUT}/cold.err" 0
         --jobs=2 "--cache=${CACHE_FILE}")
expect_identical("${OUT}/reference.txt" "${OUT}/cold.txt" "cold run")
read_stats("${OUT}/cold.err" cold)
expect_stat("${cold_hits}" 0 "cold-run hits")
expect_stat("${cold_misses}" "${cold_points}" "cold-run misses")
expect_stat("${cold_inserts}" "${cold_points}" "cold-run inserts")

# --- Warm run: 100% hits, zero simulations, byte-identical ---
run_case("${BENCH}" "${OUT}/warm.txt" "${OUT}/warm.err" 0
         --jobs=2 "--cache=${CACHE_FILE}")
expect_identical("${OUT}/reference.txt" "${OUT}/warm.txt" "warm run")
read_stats("${OUT}/warm.err" warm)
expect_stat("${warm_hits}" "${cold_points}" "warm-run hits")
expect_stat("${warm_misses}" 0 "warm-run misses")
expect_stat("${warm_inserts}" 0 "warm-run inserts")

# --- Warm forked run: cached points are never dealt to workers ---
run_case("${BENCH}" "${OUT}/warm_forks.txt" "${OUT}/warm_forks.err" 0
         --forks=2 "--cache=${CACHE_FILE}")
expect_identical("${OUT}/reference.txt" "${OUT}/warm_forks.txt"
                 "warm forked run")
read_stats("${OUT}/warm_forks.err" forks)
expect_stat("${forks_hits}" "${cold_points}" "warm forked-run hits")
expect_stat("${forks_misses}" 0 "warm forked-run misses")

# --- Warm shard: the coordinator serves its owned points too ---
run_case("${BENCH}" "${OUT}/warm_shard.txt" "${OUT}/warm_shard.err" 0
         --shard=0/2 "--cache=${CACHE_FILE}")
read_stats("${OUT}/warm_shard.err" shard)
expect_stat("${shard_misses}" 0 "warm shard-run misses")

# --- Cross-bench: a different bench, same experiments, full hits ---
run_case("${BENCH2}" "${OUT}/reference2.txt" "${OUT}/reference2.err" 0
         --jobs=1)
run_case("${BENCH2}" "${OUT}/cross.txt" "${OUT}/cross.err" 0
         --jobs=2 "--cache=${CACHE_FILE}")
expect_identical("${OUT}/reference2.txt" "${OUT}/cross.txt"
                 "cross-bench run")
read_stats("${OUT}/cross.err" cross)
expect_stat("${cross_hits}" "${cross_points}" "cross-bench hits")
expect_stat("${cross_misses}" 0 "cross-bench misses")

# --- Flipped bytes: one in the first entry's tag, one in the first
#     digit of the last entry's cycle count (the result still parses,
#     so only the entry's key can catch it); each of the two entries
#     alone is recomputed ---
file(READ "${CACHE_FILE}" content)
string(FIND "${content}" "\"type\":\"entry\"" flip_at)
if(flip_at EQUAL -1)
    message(FATAL_ERROR "no entry record in '${CACHE_FILE}'")
endif()
string(SUBSTRING "${content}" 0 ${flip_at} before)
math(EXPR rest_at "${flip_at} + 14")
string(SUBSTRING "${content}" ${rest_at} -1 after)
set(content "${before}\"type\":\"entrX\"${after}")
string(FIND "${content}" "\"type\":\"entry\"" last_at REVERSE)
string(FIND "${content}" "\"cycles\":" digit_at REVERSE)
if(NOT last_at GREATER flip_at OR NOT digit_at GREATER last_at)
    message(FATAL_ERROR "no second entry result in '${CACHE_FILE}'")
endif()
math(EXPR digit_at "${digit_at} + 9")
string(SUBSTRING "${content}" ${digit_at} 1 digit)
if(digit STREQUAL "1")
    set(digit 2)
else()
    set(digit 1)
endif()
string(SUBSTRING "${content}" 0 ${digit_at} before)
math(EXPR rest_at "${digit_at} + 1")
string(SUBSTRING "${content}" ${rest_at} -1 after)
file(WRITE "${CACHE_FILE}" "${before}${digit}${after}")
run_case("${BENCH}" "${OUT}/flip.txt" "${OUT}/flip.err" 0
         --jobs=2 "--cache=${CACHE_FILE}")
expect_identical("${OUT}/reference.txt" "${OUT}/flip.txt"
                 "flipped-byte run")
expect_match("${OUT}/flip.err" "skipping unreadable entry"
             "flipped-byte skip warning")
expect_match("${OUT}/flip.err" "key does not match"
             "flipped-digit skip warning")
read_stats("${OUT}/flip.err" flip)
expect_stat("${flip_misses}" 2 "flipped-byte misses")
expect_stat("${flip_inserts}" 2 "flipped-byte re-inserts")
# That open rewrote the file without the two skipped lines: the next
# run warns about nothing and is served every point.
run_case("${BENCH}" "${OUT}/reflip.txt" "${OUT}/reflip.err" 0
         --jobs=2 "--cache=${CACHE_FILE}")
expect_identical("${OUT}/reference.txt" "${OUT}/reflip.txt"
                 "run after the flipped-byte run")
expect_no_match("${OUT}/reflip.err" "warn:"
                "run after the flipped-byte run")
read_stats("${OUT}/reflip.err" reflip)
expect_stat("${reflip_hits}" "${cold_points}"
            "hits after the flipped-byte run")
expect_stat("${reflip_misses}" 0 "misses after the flipped-byte run")

# --- Torn final line: dropped, that entry recomputed ---
file(READ "${CACHE_FILE}" content)
string(LENGTH "${content}" content_len)
math(EXPR keep "${content_len} - 40")
string(SUBSTRING "${content}" 0 ${keep} torn)
file(WRITE "${CACHE_FILE}" "${torn}")
run_case("${BENCH}" "${OUT}/torn.txt" "${OUT}/torn.err" 0
         --jobs=2 "--cache=${CACHE_FILE}")
expect_identical("${OUT}/reference.txt" "${OUT}/torn.txt" "torn-tail run")
expect_match("${OUT}/torn.err" "torn" "torn-tail warning")
read_stats("${OUT}/torn.err" torn)
expect_stat("${torn_misses}" 1 "torn-tail misses")

# --- Stale wire version in the header: the whole file is cold ---
file(READ "${CACHE_FILE}" content)
string(REGEX REPLACE "\"wirev\":[0-9]+" "\"wirev\":999" stale
       "${content}")
file(WRITE "${CACHE_FILE}" "${stale}")
run_case("${BENCH}" "${OUT}/stale.txt" "${OUT}/stale.err" 0
         --jobs=2 "--cache=${CACHE_FILE}")
expect_identical("${OUT}/reference.txt" "${OUT}/stale.txt"
                 "stale-wire-version run")
expect_match("${OUT}/stale.err" "starting cold" "cold-start warning")
read_stats("${OUT}/stale.err" stale)
expect_stat("${stale_hits}" 0 "stale-wire-version hits")
expect_stat("${stale_misses}" "${cold_points}" "stale-wire-version misses")

message(STATUS
        "cache smoke: warm replay, cross-bench hits, and every "
        "corruption mode render byte-identically")
