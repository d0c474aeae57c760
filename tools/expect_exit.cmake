# Run a command and pass only if it exits with an expected status.
#
#   cmake -P expect_exit.cmake <status> <timeout-s> <program> [args...]
#
# The command is killed after <timeout-s> seconds, so a hang (or a
# runaway allocation loop) fails the test instead of stalling ctest.
if(CMAKE_ARGC LESS 6)
    message(FATAL_ERROR
            "usage: cmake -P expect_exit.cmake STATUS TIMEOUT PROGRAM [ARGS...]")
endif()
# CMAKE_ARGV0..2 are `cmake -P <script>`.
set(expected "${CMAKE_ARGV3}")
set(timeout "${CMAKE_ARGV4}")
set(command "")
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE 5 ${last})
    list(APPEND command "${CMAKE_ARGV${i}}")
endforeach()
execute_process(COMMAND ${command}
                RESULT_VARIABLE status
                TIMEOUT ${timeout})
if(NOT "${status}" STREQUAL "${expected}")
    message(FATAL_ERROR "expected exit status ${expected}, got '${status}'")
endif()
