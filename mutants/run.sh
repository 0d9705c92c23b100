#!/usr/bin/env bash
# Standing mutants. Each mutants/NNN-<name>.patch is a small deliberate
# bug (a unified diff of a few lines) whose header names, on a
# `Killed-by: <command>` line, a test command that must fail while the
# patch is applied. For each patch this script applies it, runs the
# command, expects a non-zero exit, and reverts the patch.
#
# A patch that no longer applies fails the run with its name: whoever
# moves the code it targets re-points the patch. A mutant that does not
# compile is a failure too (a compile error would "kill" anything). A
# survivor is a finding about the tests: fix the tests, not the list.
#
# Usage: mutants/run.sh [PATCH...]     (default: every mutants/*.patch)
# Run from a clean checkout of the patched files; each command's output
# goes to $TMPDIR/mutant.log and is shown when a mutant is not killed.
set -u
cd "$(dirname "$0")/.."

if [ $# -gt 0 ]; then patches=("$@"); else patches=(mutants/*.patch); fi
log="${TMPDIR:-/tmp}/mutant.log"
applied=""
trap '[ -n "$applied" ] && git apply -R "$applied"' EXIT
failed=0

for patch in "${patches[@]}"; do
  command=$(sed -n 's/^Killed-by: //p' "$patch" | head -n 1)
  if [ -z "$command" ]; then
    echo "FAIL    $patch: no 'Killed-by:' line"
    failed=1
    continue
  fi
  if ! git apply --check "$patch" 2>/dev/null; then
    echo "FAIL    $patch: no longer applies"
    failed=1
    continue
  fi
  git apply "$patch"
  applied="$patch"
  if bash -c "$command" >"$log" 2>&1; then
    echo "SURVIVED $patch: '$command' passed"
    failed=1
  elif grep -q 'error: could not compile' "$log"; then
    echo "FAIL    $patch: the mutant does not compile"
    tail -n 20 "$log"
    failed=1
  else
    echo "killed  $patch"
  fi
  git apply -R "$patch"
  applied=""
done

exit "$failed"
