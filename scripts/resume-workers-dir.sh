#!/usr/bin/env bash
# A --workers snapshot directory keeps its checkpoints in worker<k>/
# subdirectories, so a --resume of it without --workers finds none of
# its own.  Write a small --workers 2 directory, resume it without
# --workers, and require exit status 2 with a message that names
# --workers and the two worker directories.
#
# usage: resume-workers-dir.sh <neofog_cli>
set -u

cli=$1
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

if ! "$cli" --trace rain --nodes 4 --chains 2 --hours 0.2 --seed 3 \
        --workers 2 --snapshot-every 20 --snapshot-dir "$workdir" \
        > /dev/null; then
    echo "FAIL: the --workers 2 run did not finish" >&2
    exit 1
fi
out=$("$cli" --resume "$workdir" 2>&1)
status=$?
if [ "$status" -ne 2 ]; then
    echo "FAIL: --resume without --workers exited $status, want 2:" >&2
    printf '%s\n' "$out" | head -5 >&2
    exit 1
fi
if [[ $out != *"2 worker<k> directories"* || $out != *"--workers 2"* ]]
then
    echo "FAIL: message names neither the 2 worker directories nor" \
         "--workers 2: $out" >&2
    exit 1
fi
echo "ok: exit 2: $out"
