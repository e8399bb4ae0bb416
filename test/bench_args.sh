#!/usr/bin/env bash
# Argument validation of the benchmark harness: an argument outside the
# known modes and modifiers must exit 2 at once with the list of modes,
# never fall through to the full (many-minute) default report run.
# Driven from dune (see the rule in test/dune); $1 is the bench executable.
set -u

bench="$1"
fails=0

reject() {
  local label="$1"
  shift
  local err
  err=$(timeout 20 "$bench" "$@" 2>&1 >/dev/null)
  local got=$?
  if [ "$got" -ne 2 ]; then
    echo "FAIL $label: expected exit 2, got $got" >&2
    fails=$((fails + 1))
  elif ! grep -q -- "--hotpath" <<<"$err"; then
    echo "FAIL $label: diagnostic does not list the modes" >&2
    fails=$((fails + 1))
  else
    echo "ok   $label (exit $got)"
  fi
}

reject "removed --adjoint"    --adjoint
reject "misspelled mode"      --sprase
reject "unknown modifier"     --hotpath --smok --fast
reject "bare word"            hotpath

exit "$fails"
