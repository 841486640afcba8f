#!/usr/bin/env bash
# Run every covergame subcommand under Python's development mode with
# warnings as errors (-X dev -W error), in text and JSON, on the fixtures
# in tests/data, and a few hostile inputs for each error exit code. Each
# run must exit with its expected code. Runs that exit 0 or 3 must write
# nothing to stderr; runs that exit 1 or 2 must write exactly one stderr
# line that starts with "error: ", is at most 200 bytes long and holds no
# traceback or warning. Exits 1 on any failure. Run from the repository
# root:
#
#     bash .github/scripts/check_cli_dev_mode.sh
set -u
PYTHON=${PYTHON:-python3}
runs=0
bad=0

stderr_problem() {  # expected exit code, captured stderr
    local want=$1 err=$2 newlines
    if [ "$want" -eq 0 ] || [ "$want" -eq 3 ]; then
        [ -z "$err" ] || echo "stderr is not empty"
        return
    fi
    newlines=${err//[!$'\n']/}
    if [ "${#newlines}" -ne 1 ] || [[ "$err" != *$'\n' ]]; then
        echo "stderr is not exactly one line"
    elif [[ "$err" != "error: "* ]]; then
        echo "stderr does not start with 'error: '"
    elif [ "$(printf '%s' "$err" | wc -c)" -gt 200 ]; then
        echo "stderr is longer than 200 bytes"
    elif [[ "$err" == *Traceback* || "$err" == *Warning* ]]; then
        echo "stderr holds a traceback or a warning"
    fi
}

expect() {  # expected exit code, then the covergame arguments
    local want=$1 err code problem
    shift
    for fmt in text json; do
        # The trailing "x" keeps the newlines that $(...) would strip.
        err=$(PYTHONPATH=src "$PYTHON" -X dev -W error -m covergame.cli "$@" --format "$fmt" 2>&1 >/dev/null
              code=$?; printf x; exit $code)
        code=$?
        err=${err%x}
        runs=$((runs + 1))
        problem=$(stderr_problem "$want" "$err")
        if [ "$code" -ne "$want" ] || [ -n "$problem" ]; then
            echo "FAIL (exit $code, expected $want${problem:+; $problem}): covergame $* --format $fmt" | cut -c 1-300
            printf '%s' "$err" | head -c 1000; echo
            bad=$((bad + 1))
        fi
    done
}

for graph in tests/data/*.g; do
    expect 0 cover "$graph"
    expect 0 frac-cover "$graph" --canonical
    expect 0 gap "$graph"
    expect 0 allocate "$graph"
    expect 0 cost "$graph" --coalition 0,1
done
expect 0 verify tests/data/triangle.g tests/data/triangle.good.alloc --exhaustive
expect 3 verify tests/data/triangle.g tests/data/triangle.bad.alloc
expect 1 gap tests/data/triangle.bad.alloc
expect 1 no-such-command tests/data/triangle.g
expect 1 cost tests/data/triangle.g --coalition "$(printf '9%.0s' $(seq 5000))"

# K8 with unit weights: its 28 edges exceed the exact solver's cap of 24.
over_cap=$(mktemp)
separated=$(mktemp)
separated_alloc=$(mktemp)
trap 'rm -f "$over_cap" "$separated" "$separated_alloc"' EXIT
{
    echo "8 28"
    for u in $(seq 0 6); do
        for v in $(seq $((u + 1)) 7); do echo "$u $v 1"; done
    done
} > "$over_cap"
expect 2 cover "$over_cap"
expect 0 allocate "$over_cap"
# Past the cap the grand cost still prints: the matching has no cap.
runs=$((runs + 1))
if ! PYTHONPATH=src "$PYTHON" -X dev -W error -m covergame.cli allocate "$over_cap" | grep -qx "grand cost: 4"; then
    echo "FAIL (no 'grand cost: 4' line): covergame allocate K8"
    bad=$((bad + 1))
fi

# "#" comments holding a VT and a U+2028 (UTF-8 e2 80 a8): lines end at
# LF, CRLF and CR only, so each comment stays one line.
printf '# unit triangle\v(VT)\xe2\x80\xa8(U+2028)\n3 3\n0 1 1\n1 2 1\n0 2 1\n' > "$separated"
printf '# shares\v(VT)\xe2\x80\xa8(U+2028)\n0 1/2\n1 1/2\n2 1/2\n' > "$separated_alloc"
expect 0 gap "$separated"
expect 0 frac-cover "$separated" --canonical
expect 0 cost "$separated" --coalition 0,1
expect 0 verify "$separated" "$separated_alloc"

echo "$runs runs under -X dev -W error, $bad failed"
[ "$bad" -eq 0 ]
