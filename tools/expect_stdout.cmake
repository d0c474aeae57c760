# Run a command and pass only if it exits 0 and its stdout matches a
# regular expression.
#
#   cmake -P expect_stdout.cmake <regex> <timeout-s> <program> [args...]
#
# The command is killed after <timeout-s> seconds, so a hang fails the
# test instead of stalling ctest.
if(CMAKE_ARGC LESS 6)
    message(FATAL_ERROR
            "usage: cmake -P expect_stdout.cmake REGEX TIMEOUT PROGRAM [ARGS...]")
endif()
# CMAKE_ARGV0..2 are `cmake -P <script>`.
set(pattern "${CMAKE_ARGV3}")
set(timeout "${CMAKE_ARGV4}")
set(command "")
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE 5 ${last})
    list(APPEND command "${CMAKE_ARGV${i}}")
endforeach()
execute_process(COMMAND ${command}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                TIMEOUT ${timeout})
if(NOT "${status}" STREQUAL "0")
    message(FATAL_ERROR "expected exit status 0, got '${status}'")
endif()
if(NOT out MATCHES "${pattern}")
    message(FATAL_ERROR "stdout does not match '${pattern}':\n${out}")
endif()
