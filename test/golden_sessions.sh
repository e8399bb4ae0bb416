#!/usr/bin/env bash
# Golden sessions of the default generation path: the MD5 of the session
# bytes that `atpg generate --save` writes, and the engine's fault-simulation
# count, for reduced runs.  Any change to the optimizer trajectory,
# the solver arithmetic or the session encoding moves these values, so a
# drift in the reproduced results fails the suite instead of going unnoticed.
# A deliberate change of results must re-record them here.
# Driven from dune (see the rule in test/dune); $1 is the atpg executable.
set -u

atpg="$1"
fails=0

# golden LABEL MD5 SIMS [--checkpoint MD5] [--recovered N] ARGS...
# runs `atpg generate ARGS --save` and checks the exit code (0), the
# session MD5 and the simulation count.  --checkpoint adds `--resume` on
# a fresh file and checks that file's MD5 as well; --recovered checks the
# number of faults the retry ladder recovered.
golden() {
  local label="$1" want_md5="$2" want_sims="$3"
  shift 3
  local want_ck="" want_recovered=""
  while :; do
    case "$1" in
      --checkpoint) want_ck="$2"; shift 2 ;;
      --recovered) want_recovered="$2"; shift 2 ;;
      *) break ;;
    esac
  done
  local session="golden_sessions_$label.session"
  local ck="golden_sessions_$label.ck" err="golden_sessions_$label.err"
  local resume=()
  rm -f "$ck"
  [ -n "$want_ck" ] && resume=(--resume "$ck")
  local out
  out=$("$atpg" generate "$@" ${resume[@]+"${resume[@]}"} \
    --save "$session" 2>"$err")
  local got=$?
  local md5 sims ck_md5="" recovered
  md5=$(md5sum < "$session" 2>/dev/null | cut -d' ' -f1)
  sims=$(sed -n 's/^engine: \([0-9]*\) fault simulations.*/\1/p' <<<"$out")
  [ -f "$ck" ] && ck_md5=$(md5sum < "$ck" | cut -d' ' -f1)
  recovered=$(sed -n 's/^recovered \([0-9]*\) fault(s).*/\1/p' "$err")
  rm -f "$session" "$ck" "$err"
  if [ "$got" -ne 0 ]; then
    echo "FAIL $label: exited $got" >&2
    fails=$((fails + 1))
  elif [ "$md5" != "$want_md5" ]; then
    echo "FAIL $label: session md5 $md5, expected $want_md5" >&2
    fails=$((fails + 1))
  elif [ "$sims" != "$want_sims" ]; then
    echo "FAIL $label: $sims fault simulations, expected $want_sims" >&2
    fails=$((fails + 1))
  elif [ -n "$want_ck" ] && [ "$ck_md5" != "$want_ck" ]; then
    echo "FAIL $label: checkpoint md5 $ck_md5, expected $want_ck" >&2
    fails=$((fails + 1))
  elif [ -n "$want_recovered" ] && [ "${recovered:-0}" != "$want_recovered" ]; then
    echo "FAIL $label: ${recovered:-0} recovered, expected $want_recovered" >&2
    fails=$((fails + 1))
  else
    echo "ok   $label ($md5, $sims fault simulations)"
  fi
}

# The default rows run on one worker per core; their --jobs 1 twins pin
# the sequential loop to the same values.
golden iv   faa16e57658d23ca53d5f9c9eb2141c0 3662  --fast --take 6
golden rc16 f412365bd297cd05e4aa03c38df99e18 432   --fast --take 6 --macro rc16
golden rc48 5cd57d67437e925cdaa40005d2e7f8d5 19276 --fast --take 200 --macro rc48
golden otac16 5d8df2656fb93c1459c18022c2e438f6 396 --fast --take 6 --macro otac16
golden iv-jobs1   faa16e57658d23ca53d5f9c9eb2141c0 3662 \
  --fast --take 6 --jobs 1
golden rc16-jobs1 f412365bd297cd05e4aa03c38df99e18 432 \
  --fast --take 6 --macro rc16 --jobs 1
golden rc48-jobs1 5cd57d67437e925cdaa40005d2e7f8d5 19276 \
  --fast --take 200 --macro rc48 --jobs 1
golden otac16-jobs1 5d8df2656fb93c1459c18022c2e438f6 396 \
  --fast --take 6 --macro otac16 --jobs 1

# The same results at any job count, through a resumed checkpoint, and
# under seeded failure injection (three iv faults and six rc16 and six
# otac16 faults recover on the ladder; the rc16 and the sparse otac16
# session bytes stay those of the clean run).
golden rc16-jobs2 f412365bd297cd05e4aa03c38df99e18 432 \
  --fast --take 6 --macro rc16 --jobs 2
golden rc16-resume f412365bd297cd05e4aa03c38df99e18 432 \
  --checkpoint 4e08f66ac67bb78ed78e1118c32b1ff4 --fast --take 6 --macro rc16
for jobs in 1 2; do
  golden "iv-inject-jobs$jobs" 010b3736a6ed04da1c74058d35457ebb 1827 \
    --recovered 3 --fast --take 3 --inject dc.no_convergence=0.5@1 \
    --inject-seed 5 --jobs "$jobs"
  golden "rc16-inject-jobs$jobs" f412365bd297cd05e4aa03c38df99e18 441 \
    --recovered 6 --fast --take 6 --macro rc16 \
    --inject dc.no_convergence=0.5@1 --inject-seed 5 --jobs "$jobs"
  golden "otac16-inject-jobs$jobs" 5d8df2656fb93c1459c18022c2e438f6 404 \
    --recovered 6 --fast --take 6 --macro otac16 \
    --inject dc.no_convergence=0.5@1 --inject-seed 5 --jobs "$jobs"
done

exit "$fails"
