# Rendered-stdout byte lock, run as a ctest: a bench's full grid,
# rendered as CSV, must match its recorded seed-engine capture under
# tests/golden/ byte-for-byte. This is the bench-level half of the
# differential golden lock (perf_equiv_test.cpp is the library-level
# half): a hot-path rewrite must not move a single rendered byte.
# Regenerate a capture only for a conscious model change, e.g.
#   bench/fig06_time_overhead --format=csv > tests/golden/fig06_grid.csv
#
# Invoke with
#   cmake -DBENCH=<path to the bench>
#         -DGOLDEN=<tests/golden/<capture>.csv> -DOUT=<scratch dir>
#         -P golden_stdout.cmake
# The render is written to OUT under the capture's file name, so tests
# sharing one OUT do not collide.

foreach(var BENCH GOLDEN OUT)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "golden_stdout.cmake needs -D${var}=...")
    endif()
endforeach()

file(MAKE_DIRECTORY "${OUT}")
get_filename_component(name "${GOLDEN}" NAME_WE)

execute_process(
    COMMAND "${BENCH}" --format=csv
    OUTPUT_FILE "${OUT}/${name}.csv"
    ERROR_FILE "${OUT}/${name}.stderr"
    RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    file(READ "${OUT}/${name}.stderr" stderr)
    message(FATAL_ERROR "${BENCH} --format=csv exited ${status}:\n"
            "${stderr}")
endif()

execute_process(
    COMMAND "${CMAKE_COMMAND}" -E compare_files
            "${GOLDEN}" "${OUT}/${name}.csv"
    RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR
            "rendered bench stdout diverged from the recorded seed "
            "engine (${GOLDEN} vs ${OUT}/${name}.csv); every byte "
            "of the grid is load-bearing — a hot-path refactor must "
            "not change results, and a conscious model change must "
            "regenerate the capture in the same commit")
endif()

message(STATUS "golden stdout: ${name} is byte-identical to the seed "
               "capture")
