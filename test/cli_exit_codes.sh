#!/usr/bin/env bash
# Exit-code contract of the atpg CLI, so CI can gate on run outcomes:
#   0 - clean run
#   3 - run completed but left quarantined faults
#   4 - a fail-fast policy terminated the run
#   5 - a session or checkpoint file is corrupt
#   8 - `atpg diff` found verdict drift between two sessions
# Driven from dune (see the rule in test/dune); $1 is the atpg executable.
set -u

atpg="$1"
fails=0

expect() {
  local want="$1"
  local label="$2"
  shift 2
  "$atpg" "$@" >/dev/null 2>&1
  local got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL $label: expected exit $want, got $got" >&2
    fails=$((fails + 1))
  else
    echo "ok   $label (exit $got)"
  fi
}

# Injection always fires at the first observables call; with no retries the
# fault quarantines immediately, so each run costs one calibration pass.
expect 0 "clean generate" \
  generate --fast --take 1
expect 3 "quarantined fault" \
  generate --fast --take 1 --max-retries 0 --inject execute.observables
expect 4 "fail-fast abort" \
  generate --fast --take 1 --max-retries 0 --fail-fast --inject execute.observables
expect 3 "quarantined fault (traced)" \
  generate --fast --take 1 --max-retries 0 --inject execute.observables \
  --trace cli_exit_codes_trace.jsonl

# The traced quarantined run must still have produced a non-empty trace.
if [ ! -s cli_exit_codes_trace.jsonl ]; then
  echo "FAIL traced run left an empty or missing trace file" >&2
  fails=$((fails + 1))
else
  echo "ok   traced run wrote $(wc -l < cli_exit_codes_trace.jsonl) trace lines"
fi
rm -f cli_exit_codes_trace.jsonl

# A session file that exists but is corrupt is its own failure class
# (exit 5), distinct from a missing file (plain IO error, exit 1).
corrupt=cli_exit_codes_corrupt.session
printf 'atpg-session 99\n' > "$corrupt"
expect 5 "corrupt session file" \
  compact --fast --load "$corrupt"
printf 'atpg-session 1\nresult x\ntruncated' > "$corrupt"
expect 5 "torn session file" \
  compact --fast --load "$corrupt"
rm -f "$corrupt"
expect 1 "missing session file" \
  compact --fast --load "$corrupt"

# `atpg diff` compares verdicts: a session against itself is clean; a
# moved winner, a detectability flip or a missing fault is drift (8); a
# corrupt side is a corrupt session (5).
base=cli_exit_codes_base.session
other=cli_exit_codes_other.session
printf 'atpg-session 1\nresult bridge:a-b\nfault bridge a b 10000\nunique 1 123456 -12.5 | 1e-05\nend\nresult pinhole:m3\nfault pinhole m3 2000\nundetectable 2 0.75 10 | 0 5e-06\nend\n' > "$base"
expect 0 "diff of a session with itself" diff "$base" "$base"
sed 's/^unique 1 /unique 2 /' "$base" > "$other"
expect 8 "diff: winner moved" diff "$base" "$other"
sed 's/^undetectable 2 0.75 10 /unique 2 10 0.75 /' "$base" > "$other"
expect 8 "diff: detectability flip" diff "$base" "$other"
head -n 5 "$base" > "$other"
expect 8 "diff: missing fault" diff "$base" "$other"
sed 's/^unique 1 123456 /unique 1 130000 /' "$base" > "$other"
expect 0 "diff: critical impact inside 1.1" diff "$base" "$other"
printf 'atpg-session 99\n' > "$other"
expect 5 "diff: corrupt session" diff "$base" "$other"
rm -f "$base" "$other"

# Out-of-range grid sizes and noise bands are usage errors (cmdliner's
# 124, at parse time); an unknown tps fault or configuration is exit 1,
# reported before any tolerance box is calibrated.
expect 124 "tps --grid 1" tps --fault bridge:n1-vout --grid 1
expect 124 "sweep --points 1" sweep --points 1
expect 124 "sweep --points 2 (no midpoint slope)" sweep --points 2
expect 124 "noise --points 0" noise --points 0
expect 124 "noise --from 0" noise --from 0
expect 124 "noise --from above --to" noise --from 1e6 --to 10
expect 1 "tps unknown fault" tps --fault bridge:no-such
expect 1 "tps unknown --config" tps --fault bridge:n1-vout --config 9
err=$("$atpg" tps --fault bridge:n1-vout --config 9 2>&1 >/dev/null)
if grep -q calibrating <<<"$err" || ! grep -q "valid ids: 1, 2, 3, 4, 5" <<<"$err"; then
  echo "FAIL tps unknown --config: calibrated first or no id list: $err" >&2
  fails=$((fails + 1))
else
  echo "ok   tps unknown --config names the valid ids before calibrating"
fi

# The exit-code contract must hold identically under a worker pool, and
# probabilistic injection must quarantine the same faults at every job
# count (per-fault injection scopes make the pattern scheduling-free).
inject_run() {
  local jobs="$1"
  local save="$2"
  "$atpg" generate --fast --take 3 --max-retries 1 \
    --inject "dc.no_convergence=0.6@4" --inject-seed 11 \
    --jobs "$jobs" --save "$save" 2>"$save.err" >/dev/null
  echo $?
}
s1=cli_exit_codes_j1.session
s4=cli_exit_codes_j4.session
code1=$(inject_run 1 "$s1")
code4=$(inject_run 4 "$s4")
if [ "$code1" -ne "$code4" ]; then
  echo "FAIL injected exit codes differ: jobs 1 -> $code1, jobs 4 -> $code4" >&2
  fails=$((fails + 1))
elif [ "$code1" -ne 0 ] && [ "$code1" -ne 3 ]; then
  echo "FAIL injected run exited $code1 (contract allows 0 or 3)" >&2
  fails=$((fails + 1))
else
  echo "ok   injected exit code identical across jobs (exit $code1)"
fi
if ! cmp -s "$s1" "$s4"; then
  echo "FAIL injected session files differ between --jobs 1 and --jobs 4" >&2
  fails=$((fails + 1))
else
  echo "ok   injected session files byte-identical across jobs"
fi
if ! diff -q <(grep -i quarantin "$s1.err" || true) \
             <(grep -i quarantin "$s4.err" || true) >/dev/null; then
  echo "FAIL quarantine reports differ between --jobs 1 and --jobs 4" >&2
  fails=$((fails + 1))
else
  echo "ok   quarantine reports identical across jobs"
fi
rm -f "$s1" "$s4" "$s1.err" "$s4.err"

# Daemon exit contract: a client that cannot reach the socket fails with
# a plain IO error (1); a served request mirrors the run's exit code
# through the wire (0 here); a SIGTERMed daemon drains and exits 0; a
# rejected request is its own class (6, checked in-process by
# test_serve.ml along with drained = 7).
sock="/tmp/atpg-cec-$$.sock"
spool="/tmp/atpg-cec-$$.spool"
expect 1 "client without a daemon" \
  client --socket "$sock" ping
"$atpg" serve --socket "$sock" --spool "$spool" --budget 1 \
  >/dev/null 2>&1 &
serve_pid=$!
for _ in $(seq 1 100); do
  [ -S "$sock" ] && break
  sleep 0.05
done
expect 0 "client ping" \
  client --socket "$sock" ping
expect 0 "client generate via daemon" \
  client --socket "$sock" generate --macro rc4 --take 1 --fast
# A named session whose spool checkpoint is corrupt is the same failure
# class as `atpg generate --resume` on a corrupt file (exit 5).
printf 'atpg-session 99\n' > "$spool/bad.ck"
expect 5 "client corrupt session" \
  client --socket "$sock" generate --macro rc4 --take 1 --fast --session bad
# A named session's spool checkpoint holds the bytes `atpg generate
# --resume` writes for the same run (see golden_sessions.sh), at every
# job count, and without --jobs (the client then asks for one domain).
for jobs in default 1 2; do
  jobs_flag=() at="without --jobs"
  [ "$jobs" != default ] && jobs_flag=(--jobs "$jobs") at="at --jobs $jobs"
  expect 0 "client session $at" \
    client --socket "$sock" generate --macro rc16 --take 6 --fast \
    ${jobs_flag[@]+"${jobs_flag[@]}"} --session "g$jobs"
  md5=$(md5sum < "$spool/g$jobs.ck" 2>/dev/null | cut -d' ' -f1)
  if [ "$md5" != 4e08f66ac67bb78ed78e1118c32b1ff4 ]; then
    echo "FAIL daemon session checkpoint $at: md5 $md5" >&2
    fails=$((fails + 1))
  else
    echo "ok   daemon session checkpoint $at ($md5)"
  fi
done
kill -TERM "$serve_pid"
wait "$serve_pid"
serve_code=$?
if [ "$serve_code" -ne 0 ]; then
  echo "FAIL daemon drain: expected exit 0, got $serve_code" >&2
  fails=$((fails + 1))
else
  echo "ok   daemon drained on SIGTERM (exit 0)"
fi
rm -rf "$spool" "$sock"

exit "$fails"
