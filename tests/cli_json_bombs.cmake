# CLI robustness check: anduril_case must reject hostile or mismatched input
# files with an error and exit status 1, never die on a signal. Writes a
# signature of 200k '[' and a checkpoint of 100k nested objects into WORK_DIR,
# then replays the first and resumes from the second; then resumes zk-2247's
# plain and chain searches from a checkpoint hd-4233's search wrote.
#
#   cmake -DANDURIL_CASE=<anduril_case binary> -DWORK_DIR=<dir> -P cli_json_bombs.cmake

string(REPEAT "[" 200000 signature)
string(REPEAT "{\"a\":" 100000 open)
string(REPEAT "}" 100000 close)
file(WRITE "${WORK_DIR}/bomb_signature.json" "${signature}")
file(WRITE "${WORK_DIR}/bomb_checkpoint.json" "${open}1${close}")

# Runs the command in ARGN; `status` is an exit code, or a signal's name.
# Expects exit status 1 and stderr matching `pattern`.
function(expect_error what pattern)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE status OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT status STREQUAL "1")
    message(FATAL_ERROR "${what}: expected exit status 1, got '${status}': ${err}")
  endif()
  if(NOT err MATCHES "${pattern}")
    message(FATAL_ERROR "${what}: stderr does not match '${pattern}': ${err}")
  endif()
  message(STATUS "${what}: exit ${status}: ${err}")
endfunction()

set(nesting "nesting deeper than [0-9]+ levels at offset [0-9]+")
expect_error("replay --signature" "${nesting}" "${ANDURIL_CASE}" replay zk-2247
             "--signature=${WORK_DIR}/bomb_signature.json")
expect_error("run --resume" "${nesting}" "${ANDURIL_CASE}" run zk-2247
             "--checkpoint=${WORK_DIR}/bomb_checkpoint.json" --resume)

# A one-round hd-4233 search leaves its checkpoint (and exits 1: not
# reproduced); zk-2247 must refuse to resume from it.
set(foreign "${WORK_DIR}/hd4233_checkpoint.json")
file(REMOVE "${foreign}")
execute_process(COMMAND "${ANDURIL_CASE}" run hd-4233 full 1 "--checkpoint=${foreign}"
                OUTPUT_QUIET ERROR_QUIET)
if(NOT EXISTS "${foreign}")
  message(FATAL_ERROR "hd-4233 wrote no checkpoint to ${foreign}")
endif()
set(mismatch "cannot resume: checkpoint was written for a different program")
expect_error("run --resume (another case's checkpoint)" "${mismatch}" "${ANDURIL_CASE}" run
             zk-2247 "--checkpoint=${foreign}" --resume)
expect_error("chain --resume (another case's checkpoint)" "${mismatch}" "${ANDURIL_CASE}" chain
             zk-2247 "--checkpoint=${foreign}" --resume)
