#!/usr/bin/env bash
# Golden sessions of the default generation path: the MD5 of the session
# bytes that `atpg generate --save` writes, and the engine's fault-simulation
# count, for three reduced runs.  Any change to the optimizer trajectory,
# the solver arithmetic or the session encoding moves these values, so a
# drift in the reproduced results fails the suite instead of going unnoticed.
# A deliberate change of results must re-record them here.
# Driven from dune (see the rule in test/dune); $1 is the atpg executable.
set -u

atpg="$1"
fails=0

golden() {
  local label="$1" want_md5="$2" want_sims="$3"
  shift 3
  local session="golden_sessions_$label.session"
  local out
  out=$("$atpg" generate "$@" --save "$session" 2>/dev/null)
  local got=$?
  local md5 sims
  md5=$(md5sum < "$session" 2>/dev/null | cut -d' ' -f1)
  sims=$(sed -n 's/^engine: \([0-9]*\) fault simulations.*/\1/p' <<<"$out")
  rm -f "$session"
  if [ "$got" -ne 0 ]; then
    echo "FAIL $label: exited $got" >&2
    fails=$((fails + 1))
  elif [ "$md5" != "$want_md5" ]; then
    echo "FAIL $label: session md5 $md5, expected $want_md5" >&2
    fails=$((fails + 1))
  elif [ "$sims" != "$want_sims" ]; then
    echo "FAIL $label: $sims fault simulations, expected $want_sims" >&2
    fails=$((fails + 1))
  else
    echo "ok   $label ($md5, $sims fault simulations)"
  fi
}

golden iv   0c348fc64ca663f16e8ca9769403d0a6 3673  --fast --take 6
golden rc16 f412365bd297cd05e4aa03c38df99e18 432   --fast --take 6 --macro rc16
golden rc48 5cd57d67437e925cdaa40005d2e7f8d5 19276 --fast --take 200 --macro rc48

exit "$fails"
