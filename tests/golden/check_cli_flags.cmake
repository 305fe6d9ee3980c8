# halo_cli setup-flag routing checks (ctest: cli_setup_flags).
#
# The Appendix A.8 setup flags (--chunk-size, --max-spare-chunks,
# --max-groups, --affinity-distance) must reach every command that builds
# a local setup -- `plot` included -- and must be refused, not silently
# dropped, by every command that builds none (the serve protocol carries
# no setup overrides).
#
# Invoked as:
#   cmake -DHALO_CLI=<path> -DWORK_DIR=<dir> -P this_file

foreach(Var HALO_CLI WORK_DIR)
  if(NOT DEFINED ${Var})
    message(FATAL_ERROR "check_cli_flags.cmake needs -D${Var}=...")
  endif()
endforeach()

file(MAKE_DIRECTORY ${WORK_DIR})

# plot honours the setup flags: a 4 KiB chunk changes the bars.
execute_process(COMMAND ${HALO_CLI} plot health --trials 1
                OUTPUT_VARIABLE Default RESULT_VARIABLE Rc)
if(NOT Rc EQUAL 0)
  message(FATAL_ERROR "halo_cli plot health --trials 1 failed (exit ${Rc})")
endif()
execute_process(COMMAND ${HALO_CLI} plot health --trials 1 --chunk-size 4096
                OUTPUT_VARIABLE Small RESULT_VARIABLE Rc)
if(NOT Rc EQUAL 0)
  message(FATAL_ERROR "halo_cli plot --chunk-size 4096 failed (exit ${Rc})")
endif()
if(Default STREQUAL Small)
  message(FATAL_ERROR "plot ignored --chunk-size 4096:\n${Default}")
endif()

# Commands without a local setup reject every setup flag with a usage
# error (no daemon or store is needed: parsing fails first).
# One invocation per item, arguments separated by spaces.
set(Cases
    "client run health --socket ${WORK_DIR}/none.sock --chunk-size 4096"
    "serve --socket ${WORK_DIR}/none.sock --max-spare-chunks 0"
    "trace health --max-groups 2"
    "machines --affinity-distance 2"
    "store ls --store-dir ${WORK_DIR}/store --chunk-size 4096")
foreach(Shown IN LISTS Cases)
  separate_arguments(Case UNIX_COMMAND "${Shown}")
  execute_process(COMMAND ${HALO_CLI} ${Case}
                  OUTPUT_QUIET ERROR_VARIABLE Err RESULT_VARIABLE Rc)
  if(Rc EQUAL 0)
    message(FATAL_ERROR "halo_cli ${Shown} accepted a setup flag")
  endif()
  if(NOT Err MATCHES "builds no local setup")
    message(FATAL_ERROR "halo_cli ${Shown}: unexpected error:\n${Err}")
  endif()
endforeach()

message(STATUS "halo_cli routes the setup flags to local setups only")
