#!/usr/bin/env bash
# Run every covergame subcommand under Python's development mode with
# warnings as errors (-X dev -W error), in text and JSON, on the fixtures
# in tests/data. Each run must exit with its expected code and write
# nothing to stderr. Exits 1 on any failure. Run from the repository root:
#
#     bash .github/scripts/check_cli_dev_mode.sh
set -u
PYTHON=${PYTHON:-python3}
runs=0
bad=0

expect() {  # expected exit code, then the covergame arguments
    local want=$1 err code
    shift
    for fmt in text json; do
        err=$(PYTHONPATH=src "$PYTHON" -X dev -W error -m covergame.cli "$@" --format "$fmt" 2>&1 >/dev/null)
        code=$?
        runs=$((runs + 1))
        if [ "$code" -ne "$want" ] || [ -n "$err" ]; then
            echo "FAIL (exit $code, expected $want): covergame $* --format $fmt"
            [ -n "$err" ] && echo "$err"
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

echo "$runs runs under -X dev -W error, $bad failed"
[ "$bad" -eq 0 ]
