#!/bin/sh
# Pins the xmtfft_cli exit-code taxonomy documented in the CLI header,
# usage(), and docs/architecture.md section 10:
#   0 ok, 1 harness failure, 2 usage, 3 invalid input,
#   4 deadline exceeded (watchdog), 5 fault budget exhausted,
#   6 interrupted after writing a checkpoint (resume with --resume).
# Usage: test_exit_codes.sh <path-to-xmtfft_cli>
set -u
CLI="$1"
fail=0

expect() {
  want="$1"
  shift
  "$@" > /dev/null 2>&1
  got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: exit $got, want $want: $*"
    fail=1
  else
    echo "ok: exit $got: $*"
  fi
}

# usage errors: no command, unknown command
expect 2 "$CLI"
expect 2 "$CLI" frobnicate

# invalid input: unknown flag, size with a prime factor above the max radix
expect 3 "$CLI" fft --size 1024 --bogus 1
expect 3 "$CLI" fft --size 134

# invalid input: a 1x1 transform has no phases to run on the machine
expect 3 "$CLI" machine --clusters 8 --size 1x1
expect 3 "$CLI" faults --clusters 8 --size 1x1

# deadline: an absurdly small cycle limit trips the simulator watchdog
expect 4 "$CLI" machine --clusters 4 --size 64x64 --cycle-limit 50

# fault exhaustion: a soft-error rate the bounded recovery cannot beat
expect 5 "$CLI" faults --clusters 4 --size 64x16 \
  --faults soft:flip:0.05 --seed 1

# checkpoint flags without a directory are invalid input
expect 3 "$CLI" machine --clusters 4 --size 64x64 --checkpoint-every 1000
expect 3 "$CLI" machine --clusters 4 --size 64x64 --resume

# interrupted-after-checkpoint: SIGINT a checkpointed run once its first
# snapshot generation exists -> exit 6, and a --resume finishes with the
# byte-identical stdout of an uninterrupted run (exit 0).
ckdir=$(mktemp -d)
sig_args="machine --clusters 16 --size 256x256"
"$CLI" $sig_args > "$ckdir/ref.txt" 2>/dev/null
(
  "$CLI" $sig_args --checkpoint-dir "$ckdir/ck" --checkpoint-every 20000 \
      > /dev/null 2>&1 &
  pid=$!
  n=0
  while [ ! -e "$ckdir/ck/ckpt-000000000001.xckpt" ] \
      && kill -0 "$pid" 2>/dev/null; do
    n=$((n+1))
    [ "$n" -gt 2000 ] && break
    sleep 0.005
  done
  kill -INT "$pid" 2>/dev/null
  wait "$pid"
  exit $?
)
got=$?
if [ "$got" -ne 6 ]; then
  echo "FAIL: exit $got, want 6: SIGINT after checkpoint"
  fail=1
else
  echo "ok: exit 6: SIGINT after checkpoint"
fi
"$CLI" $sig_args --checkpoint-dir "$ckdir/ck" --checkpoint-every 20000 \
    --resume > "$ckdir/out.txt" 2>/dev/null
got=$?
if [ "$got" -ne 0 ] || ! cmp -s "$ckdir/ref.txt" "$ckdir/out.txt"; then
  echo "FAIL: resume after SIGINT (exit $got or stdout diverged)"
  fail=1
else
  echo "ok: exit 0: resume after SIGINT, stdout identical"
fi
rm -rf "$ckdir"

# success
expect 0 "$CLI" fft --size 64

exit $fail
