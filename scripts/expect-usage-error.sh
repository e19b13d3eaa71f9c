#!/usr/bin/env bash
# Usage-error contract of a command-line flag: run a command whose
# last two arguments are a flag and a value it must refuse, and
# require exit status 2 with a message that names the flag.  An abort,
# a crash or a run on a silently coerced value all fail.
#
# usage: expect-usage-error.sh <command> [args...] <flag> <bad-value>
set -u

if [ $# -lt 3 ]; then
    echo "usage: $0 <command> [args...] <flag> <bad-value>" >&2
    exit 2
fi
flag=${*: -2:1}
out=$("$@" 2>&1)
status=$?
if [ "$status" -ne 2 ]; then
    echo "FAIL: '$flag ${*: -1}' exited $status, want 2; output:" >&2
    printf '%s\n' "$out" | head -5 >&2
    exit 1
fi
case $out in
    *"$flag"*) echo "ok: $flag ${*: -1} -> exit 2: $out" ;;
    *)
        echo "FAIL: message does not name $flag: $out" >&2
        exit 1
        ;;
esac
