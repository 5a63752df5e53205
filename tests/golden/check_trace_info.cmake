# Golden check for `paramount-trace gen` / `info`: regenerates a fixed-seed
# corpus trace, compares the file's SHA-256 with the committed digest, and
# diffs the info output against the committed golden. Any drift in the
# on-disk layout (header size, chunk framing, encoding width) or in a single
# event clock shows up here — bump the format version and regenerate the
# golden and digest deliberately, never silently.
#
# Variables: TRACE_TOOL (paramount-trace binary), GOLDEN (committed file),
# WORK_DIR (scratch), SCENARIO, THREADS, EVENTS (generation parameters),
# SHA256 (expected digest of the generated .pmt).
set(trace_file ${WORK_DIR}/golden_${SCENARIO}.pmt)
execute_process(
  COMMAND ${TRACE_TOOL} gen --scenario=${SCENARIO} --threads=${THREADS}
          --events=${EVENTS} --seed=42 --out=${trace_file}
  RESULT_VARIABLE gen_result OUTPUT_QUIET)
if(NOT gen_result EQUAL 0)
  message(FATAL_ERROR "paramount-trace gen failed (${gen_result})")
endif()

file(SHA256 ${trace_file} digest)
if(NOT "${digest}" STREQUAL "${SHA256}")
  message(FATAL_ERROR "${trace_file} drifted from the pinned bytes:\n"
                      "got  ${digest}\nwant ${SHA256}")
endif()

execute_process(
  COMMAND ${TRACE_TOOL} info --input=${trace_file} --chunks
  RESULT_VARIABLE info_result OUTPUT_VARIABLE got)
if(NOT info_result EQUAL 0)
  message(FATAL_ERROR "paramount-trace info failed (${info_result})")
endif()

file(READ ${GOLDEN} want)
if(NOT got STREQUAL want)
  message(FATAL_ERROR "info output drifted from ${GOLDEN}:\n"
                      "---- got ----\n${got}\n---- want ----\n${want}")
endif()
