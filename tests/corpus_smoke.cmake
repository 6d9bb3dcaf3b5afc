# Repro-corpus replay, run as a ctest: every *.repro checked in under
# tests/corpus/ is a shrunk torture repro (the `[torture] repro:` line
# a failing campaign printed, minimized by the built-in ddmin) plus the
# oracle verdict it must reproduce. Replaying the corpus on every build
# turns each shrunk repro into a one-file regression test: an engine
# change that alters the verdict — a divergence that disappears
# (silently fixed or masked) or a clean repro that starts diverging —
# fails here with the exact command line to rerun by hand.
#
# Repro format: `flags=<torture args>` and `expect=<verdict>` lines,
# where verdict is clean (exit 0), quarantine (exit 3), divergence
# (exit 4), or unrecoverable (exit 5, no rollback target could be
# restored) per src/harness/exit_code.hh; an optional
# `stderr_match=<substring>` pins the diagnostic. No recovery check
# aborts the process, so a repro whose process dies always fails.
#
# Invoke with
#   cmake -DBENCH=<path to torture> -DCORPUS=<tests/corpus>
#         -DOUT=<scratch dir> -P corpus_smoke.cmake

foreach(var BENCH CORPUS OUT)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "corpus_smoke.cmake needs -D${var}=...")
    endif()
endforeach()

file(MAKE_DIRECTORY "${OUT}")

file(GLOB repros "${CORPUS}/*.repro")
if(NOT repros)
    message(FATAL_ERROR "no *.repro files under ${CORPUS}")
endif()
list(SORT repros)

foreach(repro IN LISTS repros)
    get_filename_component(name "${repro}" NAME_WE)
    file(STRINGS "${repro}" lines)
    set(flags "")
    set(expect "")
    set(stderr_match "")
    foreach(line IN LISTS lines)
        if(line MATCHES "^flags=(.+)$")
            set(flags "${CMAKE_MATCH_1}")
        elseif(line MATCHES "^expect=(.+)$")
            set(expect "${CMAKE_MATCH_1}")
        elseif(line MATCHES "^stderr_match=(.+)$")
            set(stderr_match "${CMAKE_MATCH_1}")
        endif()
    endforeach()
    if(flags STREQUAL "" OR expect STREQUAL "")
        message(FATAL_ERROR
                "${repro}: needs both flags= and expect= lines")
    endif()

    # Verdict -> exit code, the precedence of harness/exit_code.hh.
    if(expect STREQUAL "clean")
        set(expect_exit 0)
    elseif(expect STREQUAL "quarantine")
        set(expect_exit 3)
    elseif(expect STREQUAL "divergence")
        set(expect_exit 4)
    elseif(expect STREQUAL "unrecoverable")
        set(expect_exit 5)
    else()
        message(FATAL_ERROR
                "${repro}: unknown verdict '${expect}' (want clean, "
                "quarantine, divergence, or unrecoverable)")
    endif()

    separate_arguments(args UNIX_COMMAND "${flags}")
    execute_process(
        COMMAND "${BENCH}" ${args}
        OUTPUT_FILE "${OUT}/${name}.txt"
        ERROR_FILE "${OUT}/${name}.stderr"
        RESULT_VARIABLE status)
    if(NOT status EQUAL ${expect_exit})
        file(READ "${OUT}/${name}.stderr" stderr)
        message(FATAL_ERROR
                "${name}: expected verdict '${expect}' (exit "
                "${expect_exit}), got exit ${status} — the engine no "
                "longer reproduces this corpus entry. Rerun by hand:\n"
                "  torture ${flags}\n${stderr}")
    endif()
    if(NOT stderr_match STREQUAL "")
        file(READ "${OUT}/${name}.stderr" stderr)
        string(FIND "${stderr}" "${stderr_match}" found)
        if(found EQUAL -1)
            message(FATAL_ERROR
                    "${name}: verdict matched but the diagnostic "
                    "'${stderr_match}' is gone:\n${stderr}")
        endif()
    endif()
    message(STATUS "corpus: ${name} reproduced verdict '${expect}'")
endforeach()

message(STATUS "corpus smoke: every saved repro reproduced its verdict")
