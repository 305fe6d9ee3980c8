# Golden byte-identity check for `halo_cli plot` (ctest: golden_plot).
#
# `plot health ft --trials 2 --jobs 2` prints the Figure 13/14 bars from
# one plan; tests/golden/plot_health_ft.txt pins its stdout byte-for-byte,
# so the plot path cannot drift from the plan every other measuring
# command runs.
#
# Invoked as:
#   cmake -DHALO_CLI=<path> -DGOLDEN=<path> -DWORK_DIR=<dir> -P this_file

foreach(Var HALO_CLI GOLDEN WORK_DIR)
  if(NOT DEFINED ${Var})
    message(FATAL_ERROR "check_plot_golden.cmake needs -D${Var}=...")
  endif()
endforeach()

file(MAKE_DIRECTORY ${WORK_DIR})
set(Args plot health ft --trials 2 --jobs 2)
set(Out ${WORK_DIR}/plot_health_ft.txt)
execute_process(COMMAND ${HALO_CLI} ${Args}
                OUTPUT_FILE ${Out}
                RESULT_VARIABLE Rc)
if(NOT Rc EQUAL 0)
  message(FATAL_ERROR "halo_cli ${Args} failed (exit ${Rc})")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${Out} ${GOLDEN}
                RESULT_VARIABLE Diff)
if(NOT Diff EQUAL 0)
  message(FATAL_ERROR "halo_cli ${Args} output differs from ${GOLDEN}")
endif()

message(STATUS "halo_cli plot output matches the committed golden")
