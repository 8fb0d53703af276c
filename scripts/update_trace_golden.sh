#!/usr/bin/env bash
# Refreshes the goldens under tests/golden/ after an intentional change: the
# zk-2247 trace/metrics files (trace layout or metric namespace), the
# interpreter run digests (interpreter semantics) and the feedback and list
# strategies' search trajectories (ranking or feedback semantics).
#
# Usage: scripts/update_trace_golden.sh [build-dir]
set -euo pipefail

build_dir="${1:-build}"
repo_root="$(cd "$(dirname "$0")/.." && pwd)"

cmake --build "$repo_root/$build_dir" --target trace_golden_test interp_equivalence_test \
  priority_engine_test
ANDURIL_UPDATE_GOLDENS=1 "$repo_root/$build_dir/tests/trace_golden_test" \
  --gtest_filter='TraceGoldenTest.TraceAndMetricsMatchGoldenAtOneThread'
ANDURIL_UPDATE_GOLDENS=1 "$repo_root/$build_dir/tests/interp_equivalence_test" \
  --gtest_filter='InterpEquivalence.RunsMatchCommittedDigests'
ANDURIL_UPDATE_GOLDENS=1 "$repo_root/$build_dir/tests/priority_engine_test" \
  --gtest_filter='SearchTrajectoryGolden.StrategiesMatchCommittedTrajectories'

echo "goldens refreshed:"
git -C "$repo_root" status --short tests/golden/
