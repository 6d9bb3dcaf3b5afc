# Storage-fault smoke, run as a ctest (storage_smoke, in the CI
# release leg). Drives the torture bench with checkpoint-medium
# fault injection armed (DESIGN.md §16) and checks the three
# properties the escalation ladder promises:
#
#   1. A joint compute x storage campaign (errors landing while stored
#      records and arch images are being corrupted) recovers through
#      the ladder — every corrupt read is detected, healed by replica
#      retry or an older-checkpoint retarget, and validated bit-exact
#      by the recovery oracle — byte-identically across --jobs=1 and
#      --jobs=8.
#   2. The same campaign rendered through the distributed path
#      (2-shard --shard=i/2 record emission + --merge) stays
#      byte-identical to the single-process run.
#   3. A storage-fault plan that defeats every escalation rung turns
#      into a structured UNRECOVERABLE verdict with exit code 5 and a
#      shrunk joint compute x storage repro line — never silent wrong
#      data, never an abort.
#
# Invoke with
#   cmake -DBENCH=<path to torture> -DOUT=<scratch dir>
#         -P storage_smoke.cmake

foreach(var BENCH OUT)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "storage_smoke.cmake needs -D${var}=...")
    endif()
endforeach()

file(MAKE_DIRECTORY "${OUT}")

# Joint campaign: one workload, both checkpointing modes, two media
# (DRAM undo log and NVM), 4 compute errors vs 3 storage faults on a
# 5-checkpoint budget. campaign-seed=1 lands every surviving fault on
# a healable rung: 4 corrupt reads, all healed by retargeting the
# older retained checkpoint, 0 unrecoverable.
set(campaign
    --workloads=is --modes=ckpt,reckpt --coords=global
    --backends=log,nvm --lats=0.5 --errors=4 --storage-errors=3
    --checkpoints=5 --seeds=1 --campaign-seed=1 --oracle=on)

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

# 1. Clean joint campaign, deterministic across parallelism, with
#    every detected corrupt read healed under the oracle.
run_torture("${OUT}/jobs1.txt" 0 --jobs=1)
run_torture("${OUT}/jobs8.txt" 0 --jobs=8)
execute_process(
    COMMAND "${CMAKE_COMMAND}" -E compare_files
            "${OUT}/jobs1.txt" "${OUT}/jobs8.txt"
    RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR
            "storage --jobs=1 and --jobs=8 rendered different output")
endif()
file(READ "${OUT}/jobs1.txt" clean)
if(NOT clean MATCHES "0 divergences")
    message(FATAL_ERROR
            "clean campaign did not report zero divergences:\n${clean}")
endif()
file(READ "${OUT}/jobs1.txt.stderr" stderr)
if(NOT stderr MATCHES
   "4 corrupt read\\(s\\), 0 replica switch\\(es\\), 4 older-checkpoint retarget\\(s\\), 0 unrecoverable")
    message(FATAL_ERROR
            "storage summary did not show the expected healed "
            "escalations:\n${stderr}")
endif()

# 2. Distributed path: 2-shard record emission + --merge must render
#    byte-identically to the --jobs=1 run.
run_torture("${OUT}/shard0.ndjson" 0 --jobs=8 --shard=0/2)
run_torture("${OUT}/shard1.ndjson" 0 --jobs=8 --shard=1/2)
run_torture("${OUT}/merged.txt" 0
            "--merge=${OUT}/shard0.ndjson,${OUT}/shard1.ndjson")
execute_process(
    COMMAND "${CMAKE_COMMAND}" -E compare_files
            "${OUT}/jobs1.txt" "${OUT}/merged.txt"
    RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR
            "2-shard --merge differs from the --jobs=1 render")
endif()

# 3. Forced escalation exhaustion: a shrunk single-event x single-fault
#    plan that tears every retained checkpoint on the replicated
#    medium. Exit 5 (unrecoverable outranks divergence/quarantine in
#    the 0<3<4<5 precedence), structured verdict, repro line — and the
#    oracle still reports zero divergences: the refusal is honest, not
#    silent corruption.
execute_process(
    COMMAND "${BENCH}" --workloads=is --modes=ckpt --coords=global
            --backends=replicated --lats=0.5 --errors=4
            --checkpoints=5 --campaign-seed=11325013 --seeds=1
            --oracle=on --event-mask=4 --storage-errors=6
            --storage-mask=8 --jobs=1
    OUTPUT_FILE "${OUT}/unrecoverable.txt"
    ERROR_FILE "${OUT}/unrecoverable.stderr"
    RESULT_VARIABLE status)
if(NOT status EQUAL 5)
    message(FATAL_ERROR
            "forced escalation: expected exit 5, got ${status}")
endif()
file(READ "${OUT}/unrecoverable.stderr" stderr)
if(NOT stderr MATCHES "UNRECOVERABLE: no intact rollback target")
    message(FATAL_ERROR
            "no structured unrecoverable verdict:\n${stderr}")
endif()
if(NOT stderr MATCHES "0 divergence\\(s\\)")
    message(FATAL_ERROR
            "unrecoverable campaign was not divergence-free:\n${stderr}")
endif()
if(NOT stderr MATCHES "\\[torture\\] repro: torture ")
    message(FATAL_ERROR "no shrunk repro line:\n${stderr}")
endif()
if(NOT stderr MATCHES "--storage-mask=")
    message(FATAL_ERROR
            "repro line carries no shrunk storage mask:\n${stderr}")
endif()

message(STATUS "storage smoke: joint campaign healed deterministically "
               "(jobs, shards, merge), exhausted ladder exits 5 with "
               "a shrunk repro")
