#!/usr/bin/env bash
# Crash/resume smoke for checkpointed exploration (docs/RESILIENCE.md,
# "Durability & crash recovery").
#
# A 14-toggle net (2^14 = 16384 states) is explored three ways per
# engine request (dense and auto; the net is 1-safe, so auto must run
# packed — that keeps the packed checkpoint path covered):
#
#   1. uninterrupted — the reference `digest:` line;
#   2. killed — `--crash-after-ckpts 2` raises SIGKILL right after the
#      second durable checkpoint write (exit 137, mid-exploration);
#   3. resumed — `--resume` seeds exploration from the surviving
#      checkpoint and must finish with the *identical* digest: resume
#      replays the exact BFS discovery order, so the graph is
#      bit-identical to the one the uninterrupted run built.
#
# A final case truncates the checkpoint file mid-byte: the resume run
# must quarantine it (a `.bad` twin appears), fall back to a cold start,
# and still produce the reference digest — corruption costs the resume,
# never the answer.
#
# usage: resume_smoke.sh <cipnet-binary>
set -u -o pipefail

CIPNET="$1"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

# 14 independent toggles: 2^14 reachable states, well past several
# checkpoints at --checkpoint-every 1000.
NET="$WORK/toggle.cpn"
{
  printf '.net toggle\n'
  for i in $(seq 0 13); do
    printf '.place a%d 1\n.place b%d\n' "$i" "$i"
    printf '.trans t%d : a%d -> b%d\n.trans u%d : b%d -> a%d\n' \
      "$i" "$i" "$i" "$i" "$i" "$i"
  done
  printf '.end\n'
} > "$NET"

digest_of() {
  sed -n 's/^digest: //p' "$1" | head -n1
}

for ENGINE in dense auto; do
  CKPT="$WORK/ck-$ENGINE.bin"

  # 1. Uninterrupted reference run.
  "$CIPNET" reach "$NET" "$ENGINE" \
    > "$WORK/ref-$ENGINE.out" 2>"$WORK/ref-$ENGINE.err" || {
    echo "reference run failed ($ENGINE):" >&2
    cat "$WORK/ref-$ENGINE.err" >&2
    exit 1
  }
  REF="$(digest_of "$WORK/ref-$ENGINE.out")"
  [ -n "$REF" ] || { echo "no digest in reference output ($ENGINE)" >&2; exit 1; }
  if [ "$ENGINE" = auto ] && ! grep -qx 'engine: packed' "$WORK/ref-$ENGINE.out"; then
    echo "auto did not run packed on the 1-safe toggle net:" >&2
    cat "$WORK/ref-$ENGINE.out" >&2
    exit 1
  fi

  # 2. Crash mid-exploration: SIGKILL lands right after the second
  # checkpoint write, so the process dies with work in flight.
  "$CIPNET" reach "$NET" "$ENGINE" \
    --checkpoint "$CKPT" --checkpoint-every 1000 --crash-after-ckpts 2 \
    > "$WORK/crash-$ENGINE.out" 2>&1
  CRASH_EXIT=$?
  if [ "$CRASH_EXIT" -ne 137 ]; then
    echo "crash run exited $CRASH_EXIT, expected 137 (SIGKILL) ($ENGINE)" >&2
    cat "$WORK/crash-$ENGINE.out" >&2
    exit 1
  fi
  [ -f "$CKPT" ] || { echo "no checkpoint survived the kill ($ENGINE)" >&2; exit 1; }

  # 3. Resume from the surviving checkpoint and run to completion.
  "$CIPNET" reach "$NET" "$ENGINE" \
    --resume "$CKPT" > "$WORK/resume-$ENGINE.out" 2>"$WORK/resume-$ENGINE.err" || {
    echo "resume run failed ($ENGINE):" >&2
    cat "$WORK/resume-$ENGINE.err" >&2
    exit 1
  }
  RESUMED="$(digest_of "$WORK/resume-$ENGINE.out")"
  if [ "$RESUMED" != "$REF" ]; then
    echo "digest mismatch after resume ($ENGINE): ref=$REF resumed=$RESUMED" >&2
    exit 1
  fi
  echo "resume smoke: $ENGINE ok (digest $REF)" >&2
done

# --- corrupted checkpoint: quarantined, cold start, same answer -------------
CKPT="$WORK/ck-corrupt.bin"
"$CIPNET" reach "$NET" dense \
  --checkpoint "$CKPT" --checkpoint-every 1000 --crash-after-ckpts 2 \
  > /dev/null 2>&1
[ $? -eq 137 ] || { echo "corruption-case crash run did not SIGKILL" >&2; exit 1; }
head -c 1000 "$CKPT" > "$CKPT.tmp" && mv "$CKPT.tmp" "$CKPT"

"$CIPNET" reach "$NET" dense --resume "$CKPT" \
  > "$WORK/corrupt.out" 2>"$WORK/corrupt.err" || {
  echo "resume from a corrupt checkpoint must not fail the run:" >&2
  cat "$WORK/corrupt.err" >&2
  exit 1
}
REF="$(digest_of "$WORK/ref-dense.out")"
GOT="$(digest_of "$WORK/corrupt.out")"
if [ "$GOT" != "$REF" ]; then
  echo "cold-start digest mismatch after corruption: ref=$REF got=$GOT" >&2
  exit 1
fi
[ -f "$CKPT.bad" ] || {
  echo "corrupt checkpoint was not quarantined to .bad" >&2
  exit 1
}
echo "resume smoke: corrupted checkpoint quarantined, cold start ok" >&2
exit 0
