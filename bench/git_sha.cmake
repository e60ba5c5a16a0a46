# Writes OUT, a header defining SLEDS_GIT_SHA as the short sha of SRC's HEAD,
# with "-dirty" appended while tracked files have uncommitted edits. Run at
# build time (bench/CMakeLists.txt), it rewrites OUT only when the value
# changes, so an unchanged tree rebuilds nothing.
#
#   cmake -DSRC=<source dir> -DOUT=<header> -P git_sha.cmake
execute_process(COMMAND git -C ${SRC} rev-parse --short HEAD
                OUTPUT_VARIABLE sha
                OUTPUT_STRIP_TRAILING_WHITESPACE
                RESULT_VARIABLE rc
                ERROR_QUIET)
if(NOT rc EQUAL 0 OR NOT sha)
  set(sha "unknown")
else()
  # --no-optional-locks: a build must not take the index lock from a
  # concurrent git command.
  execute_process(COMMAND git --no-optional-locks -C ${SRC} status --porcelain
                          --untracked-files=no
                  OUTPUT_VARIABLE edits
                  ERROR_QUIET)
  if(edits)
    string(APPEND sha "-dirty")
  endif()
endif()
set(content "#define SLEDS_GIT_SHA \"${sha}\"\n")
set(old "")
if(EXISTS ${OUT})
  file(READ ${OUT} old)
endif()
if(NOT old STREQUAL content)
  file(WRITE ${OUT} "${content}")
endif()
