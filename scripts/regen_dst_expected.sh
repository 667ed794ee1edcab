#!/usr/bin/env bash
# Regenerates tests/dst/dst_expected.inc from the current build's
# dst_determinism_test. Same rule as scripts/regen_golden.sh: only for a
# change that intentionally alters simulation semantics, and say so in the
# commit message.
#
#   ./scripts/regen_dst_expected.sh [path/to/dst_determinism_test]
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
bin="${1:-$repo/build/tests/dst/dst_determinism_test}"
rows="$(MUTPS_DST_REGEN=1 "$bin" \
  --gtest_filter=DstDeterminism.CommittedRowsMatch | grep '^    "')"
{
  echo "// Generated by scripts/regen_dst_expected.sh — do not edit by hand."
  echo "// Each row is one pinned DST run (see tests/dst/dst_determinism_test.cc)."
  printf '%s\n' "$rows"
} > "$repo/tests/dst/dst_expected.inc"
echo "wrote $(printf '%s\n' "$rows" | wc -l) rows to tests/dst/dst_expected.inc"
