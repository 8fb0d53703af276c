# CLI robustness check: anduril_case must reject hostile or mismatched input
# with an error and a nonzero exit status, never die on a signal. Writes a
# signature of 200k '[' and a checkpoint of 100k nested objects into WORK_DIR,
# then replays the first and resumes from the second; resumes zk-2247's plain
# and chain searches from a checkpoint hd-4233's search wrote, from one
# whose observable priority is out of range, from three whose
# rounds_completed is negative, a string, or past the int range (each used to
# resume into a wrong search), and from one whose embedded metrics counter is
# a string (it used to resume with the counter at 0); checkpoints into a missing
# directory and with a strategy that cannot checkpoint (all exit 1); and
# passes an unknown strategy, malformed counts, a non-numeric replay
# occurrence, a negative replay seed and a negative graph node limit (exit 2).
#
#   cmake -DANDURIL_CASE=<anduril_case binary> -DWORK_DIR=<dir> -P cli_json_bombs.cmake

string(REPEAT "[" 200000 signature)
string(REPEAT "{\"a\":" 100000 open)
string(REPEAT "}" 100000 close)
file(WRITE "${WORK_DIR}/bomb_signature.json" "${signature}")
file(WRITE "${WORK_DIR}/bomb_checkpoint.json" "${open}1${close}")

# Runs the command in ARGN; `status` is an exit code, or a signal's name.
# Expects exit status `expected_status` and stderr matching `pattern`.
function(expect_error what expected_status pattern)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE status OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT status STREQUAL "${expected_status}")
    message(FATAL_ERROR
            "${what}: expected exit status ${expected_status}, got '${status}': ${err}")
  endif()
  if(NOT err MATCHES "${pattern}")
    message(FATAL_ERROR "${what}: stderr does not match '${pattern}': ${err}")
  endif()
  message(STATUS "${what}: exit ${status}: ${err}")
endfunction()

set(nesting "nesting deeper than [0-9]+ levels at offset [0-9]+")
expect_error("replay --signature" 1 "${nesting}" "${ANDURIL_CASE}" replay zk-2247
             "--signature=${WORK_DIR}/bomb_signature.json")
expect_error("run --resume" 1 "${nesting}" "${ANDURIL_CASE}" run zk-2247
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
expect_error("run --resume (another case's checkpoint)" 1 "${mismatch}" "${ANDURIL_CASE}" run
             zk-2247 "--checkpoint=${foreign}" --resume)
expect_error("chain --resume (another case's checkpoint)" 1 "${mismatch}" "${ANDURIL_CASE}"
             chain zk-2247 "--checkpoint=${foreign}" --resume)

# zk-2247's own two-round checkpoint with its first observable priority set
# to 2^63-1: the parser must refuse it before the ranking arithmetic sees it.
set(hostile "${WORK_DIR}/zk2247_hostile_checkpoint.json")
file(REMOVE "${hostile}")
execute_process(COMMAND "${ANDURIL_CASE}" run zk-2247 full 2 "--checkpoint=${hostile}"
                OUTPUT_QUIET ERROR_QUIET)
file(READ "${hostile}" checkpoint)
string(REGEX REPLACE "(\"observable_priorities\": \\[[^0-9-]*)[0-9-]+" "\\19223372036854775807"
       tampered "${checkpoint}")
if(tampered STREQUAL checkpoint)
  message(FATAL_ERROR "found no observable priority to tamper with in ${hostile}")
endif()
file(WRITE "${hostile}" "${tampered}")
expect_error("run --resume (out-of-range priority)" 1 "\"observable_priorities\" holds"
             "${ANDURIL_CASE}" run zk-2247 "--checkpoint=${hostile}" --resume)

# The same round-2 checkpoint with a forged round count. A negative count
# used to resume "in -4 rounds", a string one restarted at round 1 with round
# 2's strategy state, and 4294967298 wrapped to 2.
if(NOT checkpoint MATCHES "\"rounds_completed\": 2,")
  message(FATAL_ERROR "found no \"rounds_completed\": 2 in ${hostile}")
endif()
set(forged_file "${WORK_DIR}/zk2247_forged_rounds_checkpoint.json")
foreach(forged "-7" "\"2\"" "4294967298")
  string(REPLACE "\"rounds_completed\": 2," "\"rounds_completed\": ${forged},"
         tampered "${checkpoint}")
  file(WRITE "${forged_file}" "${tampered}")
  expect_error("run --resume (rounds_completed ${forged})" 1
               "cannot resume: checkpoint field \"rounds_completed\""
               "${ANDURIL_CASE}" run zk-2247 "--checkpoint=${forged_file}" --resume)
endforeach()

# zk-2247's round-2 checkpoint, which embeds the metrics snapshot (the CLI
# always attaches a registry), with a counter forged to a string: a resume
# used to read it as 0, exit 0 and write the counter as 0.
set(metered "${WORK_DIR}/zk2247_metrics_checkpoint.json")
file(REMOVE "${metered}")
execute_process(COMMAND "${ANDURIL_CASE}" run zk-2247 full 2 "--checkpoint=${metered}"
                        "--metrics-out=${WORK_DIR}/zk2247_metrics.json"
                OUTPUT_QUIET ERROR_QUIET)
file(READ "${metered}" metered_checkpoint)
string(REGEX REPLACE "(\"explore\\.context_builds\"): [0-9]+" "\\1: \"1\"" tampered
       "${metered_checkpoint}")
if(tampered STREQUAL metered_checkpoint)
  message(FATAL_ERROR "found no explore.context_builds counter in ${metered}")
endif()
file(WRITE "${metered}" "${tampered}")
expect_error("run --resume (metrics counter \"1\")" 1
             "cannot resume: metrics counter \"explore\\.context_builds\" is not an integer"
             "${ANDURIL_CASE}" run zk-2247 "--checkpoint=${metered}" --resume
             "--metrics-out=${WORK_DIR}/zk2247_metrics.json")

# Checkpoints the search cannot write, and a strategy that cannot checkpoint.
set(missing "${WORK_DIR}/no_such_dir/ck.json")
set(unwritable "cannot write checkpoint file ${missing} after round 1")
expect_error("run --checkpoint (missing directory)" 1 "${unwritable}" "${ANDURIL_CASE}" run
             hd-4233 full 50 "--checkpoint=${missing}")
expect_error("chain --checkpoint (missing directory)" 1 "${unwritable}" "${ANDURIL_CASE}" chain
             casc-retry-1 4 50 "--checkpoint=${missing}")
expect_error("run fate --checkpoint" 1 "fate strategy cannot save its search state"
             "${ANDURIL_CASE}" run zk-2247 fate 50 "--checkpoint=${WORK_DIR}/fate_ck.json")

# Usage errors.
expect_error("run (unknown strategy)" 2 "unknown strategy 'bogus'" "${ANDURIL_CASE}" run
             zk-2247 bogus)
expect_error("chain (chain length 0)" 2 "max_chain_length must be a whole number >= 1, got '0'"
             "${ANDURIL_CASE}" chain casc-retry-1 0)
expect_error("run (non-numeric max_rounds)" 2 "max_rounds must be a whole number >= 1, got 'abc'"
             "${ANDURIL_CASE}" run zk-2247 full abc)
# replay's occurrence and seed and graph's max_nodes are whole numbers in
# range; read unchecked, "abc" arms occurrence 0, -1 runs seed 2^64-1 and -5
# prints the whole graph.
expect_error("replay (non-numeric occurrence)" 2
             "occurrence must be a whole number >= 1, got 'abc'" "${ANDURIL_CASE}" replay
             zk-2247 abc 7)
expect_error("replay (negative seed)" 2 "seed must be a whole number >= 0, got '-1'"
             "${ANDURIL_CASE}" replay zk-2247 3 -1)
expect_error("graph (negative max_nodes)" 2 "max_nodes must be a whole number >= 0, got '-5'"
             "${ANDURIL_CASE}" graph zk-2247 -5)
