# End-to-end fault-tolerance check for the sweep supervisor, run as a
# ctest (fault_smoke_*, in the CI release leg). Against a
# bench binary (-DBENCH=...) and workload subset (-DWORKLOADS=...), it
# injects worker crashes, wedges, and coordinator kills through the
# ACR_TEST_* hooks and verifies the BenchMain fault-tolerance contract:
#
#   * a worker crash mid-sweep is retried on a respawned worker and the
#     rendered stdout stays byte-identical to --jobs=1;
#   * a wedged worker is SIGKILLed by the --point-timeout watchdog and
#     its point retried, same byte-identical contract;
#   * a point failing every attempt is quarantined: the table renders a
#     FAILED cell and the process exits 3 instead of aborting;
#   * a sweep killed mid-run restarts by rerunning it with the same
#     --cache, without re-simulating completed points (run counts
#     checked via the "cache: N hit(s)" stderr stat). Warm reruns and
#     the torn-tail drop are covered by tests/cache_smoke.cmake.
#
# Invoke with
#   cmake -DBENCH=<path> -DWORKLOADS=<a,b> -DOUT=<scratch dir>
#         -P fault_smoke.cmake

foreach(var BENCH WORKLOADS OUT)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "fault_smoke.cmake needs -D${var}=...")
    endif()
endforeach()

file(REMOVE_RECURSE "${OUT}")
file(MAKE_DIRECTORY "${OUT}")

# Run the bench with extra environment (a cmake list of VAR=VALUE, may
# be empty) and require a specific exit status.
function(run_case output errfile expect_status envs)
    execute_process(
        COMMAND "${CMAKE_COMMAND}" -E env ${envs}
                "${BENCH}" "--workloads=${WORKLOADS}" ${ARGN}
        OUTPUT_FILE "${output}"
        ERROR_FILE "${errfile}"
        RESULT_VARIABLE status)
    if(NOT status EQUAL ${expect_status})
        file(READ "${errfile}" stderr)
        message(FATAL_ERROR
                "${BENCH} ${ARGN} [env: ${envs}] exited ${status} "
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
                "${what} output differs from the --jobs=1 reference "
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

run_case("${OUT}/reference.txt" "${OUT}/reference.err" 0 "" --jobs=1)

# --- Worker crash: retried on a respawned worker, output identical ---
run_case("${OUT}/crash.txt" "${OUT}/crash.err" 0
         "ACR_TEST_CRASH_AT=2" --forks=2)
expect_identical("${OUT}/reference.txt" "${OUT}/crash.txt"
                 "crash-injected forked sweep")
expect_match("${OUT}/crash.err" "retry" "crash retry report")
expect_match("${OUT}/crash.err" "respawn" "crash respawn stat")

# --- Wedged worker: watchdog SIGKILL + retry, output identical ---
run_case("${OUT}/wedge.txt" "${OUT}/wedge.err" 0
         "ACR_TEST_WEDGE_AT=1" --forks=2 --point-timeout=5)
expect_identical("${OUT}/reference.txt" "${OUT}/wedge.txt"
                 "watchdog-killed forked sweep")
expect_match("${OUT}/wedge.err" "point-timeout" "watchdog kill report")

# --- Exhausted retries: quarantine, FAILED cell, exit code 3 ---
run_case("${OUT}/quarantine.txt" "${OUT}/quarantine.err" 3
         "ACR_TEST_CRASH_INDEX=1" --forks=2 --retries=1)
expect_match("${OUT}/quarantine.txt" "FAILED" "quarantined table cell")
expect_match("${OUT}/quarantine.err" "quarantin" "quarantine report")

# --- Restart from the cache: the coordinator dies after 2 cache
#     appends, and the same command without the hook serves those 2
#     from the cache and finishes the rest ---
run_case("${OUT}/half.txt" "${OUT}/half.err" 7
         "ACR_TEST_COORD_EXIT_AFTER=2" --forks=2
         "--cache=${OUT}/sweep.cache")
run_case("${OUT}/restarted.txt" "${OUT}/restarted.err" 0 ""
         --forks=2 "--cache=${OUT}/sweep.cache")
expect_identical("${OUT}/reference.txt" "${OUT}/restarted.txt"
                 "cache-restarted forked sweep")
expect_match("${OUT}/restarted.err" "cache: 2 hit\\(s\\)"
             "restart must serve exactly the cached completions")

# --- Merging shards that contain failed records: the merged render
#     shows FAILED cells and exits 3, same as a live quarantine ---
run_case("${OUT}/fshard0.ndjson" "${OUT}/fshard0.err" 3
         "ACR_TEST_CRASH_INDEX=0" --shard=0/2 --forks=2 --retries=0)
run_case("${OUT}/fshard1.ndjson" "${OUT}/fshard1.err" 0 "" --shard=1/2)
run_case("${OUT}/fmerged.txt" "${OUT}/fmerged.err" 3 ""
         "--merge=${OUT}/fshard0.ndjson,${OUT}/fshard1.ndjson")
expect_match("${OUT}/fmerged.txt" "FAILED"
             "merged FAILED table cell")
expect_match("${OUT}/fmerged.err" "quarantin"
             "merged quarantine report")

# --- Oracle-in-workers parity (needs -DTORTURE=<torture binary>): a
#     fixture divergence (ACR_TEST_CORRUPT_RECOVERY) must surface
#     identically — same rendered bytes, same exit-4 verdict — whether
#     the point runs on in-process threads (--jobs), forked wire-
#     protocol workers (--forks), or split across shards whose records
#     carry the divergence to a later --merge. In shard mode the legs
#     themselves exit 0: the verdict travels in the result records
#     (oracleDivergences/oracleReport) and is applied at render time.
if(DEFINED TORTURE)
    set(oracle_campaign --workloads=is --modes=reckpt --coords=global
        --lats=0.5 --errors=8 --checkpoints=5 --seeds=1 --oracle=on)
    function(run_oracle output errfile expect_status)
        execute_process(
            COMMAND "${CMAKE_COMMAND}" -E env ACR_TEST_CORRUPT_RECOVERY=1
                    "${TORTURE}" ${oracle_campaign} ${ARGN}
            OUTPUT_FILE "${output}"
            ERROR_FILE "${errfile}"
            RESULT_VARIABLE status)
        if(NOT status EQUAL ${expect_status})
            file(READ "${errfile}" stderr)
            message(FATAL_ERROR
                    "${TORTURE} ${ARGN}: expected exit "
                    "${expect_status}, got ${status}:\n${stderr}")
        endif()
    endfunction()

    run_oracle("${OUT}/oracle_jobs.txt" "${OUT}/oracle_jobs.err" 4
               --jobs=1)
    run_oracle("${OUT}/oracle_forks.txt" "${OUT}/oracle_forks.err" 4
               --forks=2)
    expect_identical("${OUT}/oracle_jobs.txt" "${OUT}/oracle_forks.txt"
                     "oracle divergence under --forks")
    expect_match("${OUT}/oracle_forks.err" "\\[oracle\\]"
                 "forked oracle diagnostic")

    run_oracle("${OUT}/oracle_s0.ndjson" "${OUT}/oracle_s0.err" 0
               --shard=0/2 --forks=2)
    run_oracle("${OUT}/oracle_s1.ndjson" "${OUT}/oracle_s1.err" 0
               --shard=1/2)
    # The divergence must travel inside the wire records themselves.
    file(READ "${OUT}/oracle_s0.ndjson" s0)
    file(READ "${OUT}/oracle_s1.ndjson" s1)
    if(NOT "${s0}${s1}" MATCHES "\"oracleDivergences\":[1-9]")
        message(FATAL_ERROR
                "no shard record carries a nonzero oracleDivergences "
                "count — divergences are not crossing the wire")
    endif()
    run_oracle("${OUT}/oracle_merged.txt" "${OUT}/oracle_merged.err" 4
               "--merge=${OUT}/oracle_s0.ndjson,${OUT}/oracle_s1.ndjson")
    expect_identical("${OUT}/oracle_jobs.txt" "${OUT}/oracle_merged.txt"
                     "oracle divergence across shard+merge")

    message(STATUS
            "fault smoke: oracle divergence surfaced identically in "
            "--jobs, --forks, and --shard+merge")
endif()

message(STATUS
        "fault smoke: crash, watchdog, quarantine, and restart all "
        "render byte-identically")
