#!/usr/bin/env bash
# Numeric-flag validation of the atpg CLI: out-of-range and garbage
# values must be rejected with a friendly diagnostic and a nonzero exit,
# never a crash or a silently-clamped run.
# Driven from dune (see the rule in test/dune); $1 is the atpg executable.
set -u

atpg="$1"
fails=0

# A bad flag must exit nonzero AND say something about the offending
# value on stderr (cmdliner usage errors exit 124 for bad option values).
reject() {
  local label="$1"
  shift
  local err
  err=$("$atpg" "$@" 2>&1 >/dev/null)
  local got=$?
  if [ "$got" -eq 0 ]; then
    echo "FAIL $label: accepted (exit 0)" >&2
    fails=$((fails + 1))
  elif [ -z "$err" ]; then
    echo "FAIL $label: rejected silently (exit $got, no diagnostic)" >&2
    fails=$((fails + 1))
  else
    echo "ok   $label (exit $got)"
  fi
}

# A good invocation must exit zero with a marker on its stdout.
expect_out() {
  local label="$1" pattern="$2"
  shift 2
  local out
  out=$("$atpg" "$@" 2>/dev/null)
  local got=$?
  if [ "$got" -ne 0 ]; then
    echo "FAIL $label: exited $got" >&2
    fails=$((fails + 1))
  elif ! grep -q "$pattern" <<<"$out"; then
    echo "FAIL $label: expected output matching '$pattern'" >&2
    fails=$((fails + 1))
  else
    echo "ok   $label"
  fi
}

reject "--jobs -1"           generate --fast --take 1 --jobs -1
reject "--jobs garbage"      generate --fast --take 1 --jobs banana
reject "--take 0"            generate --fast --take 0
reject "--take=-2"           generate --fast --take=-2
reject "--max-retries -1"    generate --fast --take 1 --max-retries -1
reject "--max-retries junk"  generate --fast --take 1 --max-retries 1.5
reject "--campaigns 0"       fuzz --campaigns 0
reject "--campaigns -3"      fuzz --campaigns -3
reject "--campaigns garbage" fuzz --campaigns many
reject "--seed garbage"      fuzz --campaigns 1 --seed pi
reject "--inject-seed junk"  generate --fast --take 1 --inject execute.observables --inject-seed x
reject "bad --inject spec"   generate --fast --take 1 --inject "no.such.point=2"
reject "unknown fuzz check"  fuzz --campaigns 1 --check no-such-invariant
reject "parametric macro 0"  op --macro skc0
reject "parametric macro big" op --macro rc9999
reject "removed --grad"      generate --fast --take 1 --grad

# Every subcommand's help renders cleanly: exit 0 and nothing on stderr
# (cmdliner reports malformed doc markup there).  The --inject spec is
# shown as typed.
for cmd in netlist op simulate sweep noise faults tps generate compact diff \
  baseline profile experiment fuzz serve client; do
  out=$("$atpg" "$cmd" --help=plain 2>"help_$cmd.err")
  got=$?
  err=$(cat "help_$cmd.err")
  rm -f "help_$cmd.err"
  if [ "$got" -ne 0 ] || [ -n "$err" ]; then
    echo "FAIL $cmd --help: exit $got, stderr: $err" >&2
    fails=$((fails + 1))
  else
    case "$cmd" in
      generate | fuzz | client)
        if grep -qF "dc.no_convergence=0.3@5" <<<"$out"; then
          echo "ok   $cmd --help (inject syntax shown)"
        else
          echo "FAIL $cmd --help: no 'dc.no_convergence=0.3@5' example" >&2
          fails=$((fails + 1))
        fi ;;
      *) echo "ok   $cmd --help" ;;
    esac
  fi
done

# The op header names the backend chosen from the netlist size: dense LU
# for the 10-node IV-converter, sparse for the 97-node skc32 chain.
expect_out "op iv selects dense"     "^operating point of .* (dense, " op --macro iv
expect_out "op skc32 selects sparse" "^operating point of .* (sparse, " op --macro skc32

# `profile` runs on any --macro through the same context builder as
# `generate`: an rc16 probe context builds without calibrating tolerance
# boxes and its counter table carries the DC solver's factorizations.
err=$("$atpg" profile --macro rc16 --fast --take 2 --jobs 1 2>&1 >profile_rc16.out)
got=$?
if [ "$got" -ne 0 ]; then
  echo "FAIL profile --macro rc16: exited $got" >&2
  fails=$((fails + 1))
elif grep -q calibrating <<<"$err"; then
  echo "FAIL profile --macro rc16: calibrated (ran the IV context?)" >&2
  fails=$((fails + 1))
elif ! grep -q "solver.dc.lu_factorizations" profile_rc16.out; then
  echo "FAIL profile --macro rc16: no solver.dc.lu_factorizations counter" >&2
  fails=$((fails + 1))
else
  echo "ok   profile --macro rc16"
fi
rm -f profile_rc16.out
reject "profile unknown macro" profile --macro nosuch --take 1

# `experiment` validates its id before it builds anything: an unknown
# id exits 1 at once, naming every report, and the context-free reports
# never calibrate tolerance boxes.
err=$("$atpg" experiment bogus 2>&1 >/dev/null)
got=$?
missing=""
for id in fig1 tab1 fig234 fig5 fig6 fig7 tab2 fig8 tab3 tab4 xbase xac \
  xifa xeq xq ximd all; do
  grep -qw -- "$id" <<<"$err" || missing="$missing $id"
done
if [ "$got" -ne 1 ]; then
  echo "FAIL experiment bogus: expected exit 1, got $got" >&2
  fails=$((fails + 1))
elif [ -n "$missing" ]; then
  echo "FAIL experiment bogus: diagnostic lacks$missing" >&2
  fails=$((fails + 1))
elif grep -q calibrating <<<"$err"; then
  echo "FAIL experiment bogus: calibrated before rejecting the id" >&2
  fails=$((fails + 1))
else
  echo "ok   experiment bogus (exit 1, every id named)"
fi
err=$("$atpg" experiment fig1 2>&1 >/dev/null)
got=$?
if [ "$got" -ne 0 ] || grep -q calibrating <<<"$err"; then
  echo "FAIL experiment fig1: exit $got, stderr: $err" >&2
  fails=$((fails + 1))
else
  echo "ok   experiment fig1 (no calibration)"
fi

exit "$fails"
