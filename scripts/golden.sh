#!/usr/bin/env bash
# Golden corpus lane: run a build's neofog_cli and benches on the
# entries of tests/golden/manifest and compare what they print and
# write, byte for byte, with the committed corpus; or rewrite the
# corpus from that build.
#
#   golden.sh check BUILD_DIR [KIND NAME]   every entry, or the one named
#   golden.sh regen BUILD_DIR               rewrite every corpus file
#
# KIND is report, bench, snapshot, series or migrate (see the manifest
# header).  A series entry prints time series (--probes,
# --dump-energy), which --workers refuses, so it runs at --threads 1
# and 4 only, in each of the json, csv and text formats.  A migrate
# entry reads a committed neofog-snapshot-v1 file, which no build
# writes any more, so regen checks it and writes nothing.
#
# `check` exits 1 if any output differs, naming the first metric (for
# JSON) or the first snapshot field (through neofog_replay) that moved.
# `regen` is for a change that means to move bytes: review the diff it
# leaves and name every changed file in CHANGES.md.  It still checks
# that --threads 4, --workers 2 and resume agree with --threads 1.
#
# ctest runs one `check` per entry under the label `golden`.
set -u

usage() {
    echo "usage: $0 check BUILD_DIR [report|bench|snapshot|series|migrate NAME]" >&2
    echo "       $0 regen BUILD_DIR" >&2
    exit 2
}

mode=${1:-}
[ "$mode" = check ] || [ "$mode" = regen ] || usage
[ -d "${2:-}" ] || usage
build=$(cd "$2" && pwd)
only_kind=${3:-}
only_name=${4:-}
[ "$mode" = check ] || [ -z "$only_kind" ] || usage

root=$(cd "$(dirname "$0")/.." && pwd)
corpus=$root/tests/golden
cli=$build/examples/neofog_cli
replay=$build/tools/neofog_replay/neofog_replay

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

failed=0

fail() {
    echo "FAIL $*" >&2
    failed=1
}

# same WANT GOT LABEL: compare GOT with the corpus file WANT.
same() {
    if cmp -s "$1" "$2"; then
        echo "ok   $3"
        return
    fi
    fail "$3: differs from ${1#"$root"/}"
    if [[ $1 == *.nfsnap ]]; then
        [ -x "$replay" ] && "$replay" "$1" "$2" >&2
    else
        # A report is one JSON line: split it at commas so the diff
        # names the metric that moved.
        diff <(tr ',' '\n' < "$1") <(tr ',' '\n' < "$2") | head -n 12 >&2
    fi
}

# put GOT WANT LABEL: the first output of an entry, which regen
# records and check compares.
put() {
    if [ "$mode" = regen ]; then
        cp "$1" "$2"
        echo "wrote ${2#"$root"/}"
    else
        same "$2" "$1" "$3"
    fi
}

report() {
    local name=$1 want=$corpus/report-$1.json run got i=0
    shift
    for run in "--threads 1" "--threads 4" "--workers 2"; do
        got=$work/report-$name-$i.json
        i=$((i + 1))
        # shellcheck disable=SC2086  # $run is two words on purpose
        "$cli" "$@" $run --format json > "$got" < /dev/null ||
            { fail "report $name ($run): neofog_cli exited $?"; continue; }
        if [ "$run" = "--threads 1" ]; then
            put "$got" "$want" "report $name ($run)"
        else
            same "$want" "$got" "report $name ($run)"
        fi
    done
}

bench() {
    local name=$1 dir=$work/bench-$1
    mkdir -p "$dir"
    (cd "$dir" && NEOFOG_BENCH_DIR=$dir "$build/bench/$name" \
        > stdout.txt < /dev/null) ||
        { fail "bench $name exited $?"; return; }
    # The path it wrote the JSON to is this run's scratch directory.
    sed '/^results -> /d' "$dir/stdout.txt" > "$dir/$name.txt"
    put "$dir/BENCH_$name.json" "$corpus/bench-$name.json" \
        "bench $name: BENCH_$name.json"
    put "$dir/$name.txt" "$corpus/bench-$name.txt" "bench $name: stdout"
}

snapshot() {
    local name=$1 slot=$2 dir=$work/snapshot-$1 want t
    shift 2
    want=$corpus/snapshot-$name
    "$cli" "$@" --snapshot-every "$slot" --snapshot-dir "$dir" \
        --format json > "$dir.json" < /dev/null ||
        { fail "snapshot $name: neofog_cli exited $?"; return; }
    put "$dir/$(printf 'snap-%010d.nfsnap' "$slot")" "$want.nfsnap" \
        "snapshot $name: slot-$slot file"
    put "$dir.json" "$want.json" "snapshot $name: report"
    for t in 1 4; do
        "$cli" --resume "$want.nfsnap" --threads "$t" --format json \
            > "$dir-resumed-$t.json" < /dev/null ||
            { fail "snapshot $name: resume exited $?"; continue; }
        same "$want.json" "$dir-resumed-$t.json" \
            "snapshot $name: resumed at --threads $t"
    done
}

series() {
    local name=$1 want got f t
    shift
    for f in json csv text; do
        want=$corpus/series-$name.$f
        for t in 1 4; do
            got=$work/series-$name-$t.$f
            "$cli" "$@" --threads "$t" --format "$f" > "$got" < /dev/null ||
                { fail "series $name ($f, $t): neofog_cli exited $?"
                  continue; }
            if [ "$t" = 1 ]; then
                put "$got" "$want" "series $name ($f, --threads $t)"
            else
                same "$want" "$got" "series $name ($f, --threads $t)"
            fi
        done
    done
}

migrate() {
    local name=$1 want=$corpus/snapshot-$1 dir=$work/migrate-$1 t
    for t in 1 4; do
        "$cli" --resume "$want.v1.nfsnap" --threads "$t" --format json \
            > "$dir-resumed-$t.json" < /dev/null ||
            { fail "migrate $name: resume exited $?"; continue; }
        same "$want.json" "$dir-resumed-$t.json" \
            "migrate $name: v1 file resumed at --threads $t"
    done
    [ -x "$replay" ] || { fail "migrate $name: no neofog_replay"; return; }
    if "$replay" "$want.v1.nfsnap" "$want.nfsnap" > "$dir-replay.txt"; then
        echo "ok   migrate $name: v1 and v2 files hold the same fields"
    else
        fail "migrate $name: v1 and v2 files differ"
        cat "$dir-replay.txt" >&2
    fi
}

[ -x "$cli" ] || { echo "no neofog_cli under $build/examples" >&2; exit 2; }

matched=0
while read -r kind name rest <&3; do
    case $kind in '' | '#'*) continue ;; esac
    if [ -n "$only_kind" ] &&
        { [ "$kind" != "$only_kind" ] || [ "$name" != "$only_name" ]; }
    then
        continue
    fi
    matched=1
    # shellcheck disable=SC2086  # the manifest's flags split on spaces
    case $kind in
        report) report "$name" $rest ;;
        bench) bench "$name" ;;
        snapshot) snapshot "$name" $rest ;;
        series) series "$name" $rest ;;
        migrate) migrate "$name" ;;
        *) echo "manifest: unknown kind '$kind'" >&2; exit 2 ;;
    esac
done 3< "$corpus/manifest"

if [ "$matched" = 0 ]; then
    echo "manifest has no entry '$only_kind $only_name'" >&2
    exit 2
fi
exit "$failed"
