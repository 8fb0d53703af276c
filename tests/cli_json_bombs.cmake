# CLI robustness check: anduril_case must reject JSON nesting bombs with a
# parse error and a nonzero exit status, never die on a signal. Writes a
# signature of 200k '[' and a checkpoint of 100k nested objects into WORK_DIR,
# then replays the first and resumes from the second.
#
#   cmake -DANDURIL_CASE=<anduril_case binary> -DWORK_DIR=<dir> -P cli_json_bombs.cmake

string(REPEAT "[" 200000 signature)
string(REPEAT "{\"a\":" 100000 open)
string(REPEAT "}" 100000 close)
file(WRITE "${WORK_DIR}/bomb_signature.json" "${signature}")
file(WRITE "${WORK_DIR}/bomb_checkpoint.json" "${open}1${close}")

# Runs the command in ARGN; `status` is an exit code, or a signal's name.
function(expect_parse_error what)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE status OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT status MATCHES "^[0-9]+$" OR status EQUAL 0)
    message(FATAL_ERROR "${what}: expected a nonzero exit status, got '${status}'")
  endif()
  if(NOT err MATCHES "nesting deeper than [0-9]+ levels at offset [0-9]+")
    message(FATAL_ERROR "${what}: no nesting error on stderr: ${err}")
  endif()
  message(STATUS "${what}: exit ${status}: ${err}")
endfunction()

expect_parse_error("replay --signature" "${ANDURIL_CASE}" replay zk-2247
                   "--signature=${WORK_DIR}/bomb_signature.json")
expect_parse_error("run --resume" "${ANDURIL_CASE}" run zk-2247
                   "--checkpoint=${WORK_DIR}/bomb_checkpoint.json" --resume)
