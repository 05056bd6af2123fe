#!/usr/bin/env bash
# The verdict gate: runs every benchmark workload once at seed 1 (the
# first 100 ops, no time box) and fails unless each run is correct with
# no failed cell and its simulated statistics — cells, rounds, messages,
# decided values, agreement violations, verdict digest — equal the lines
# recorded in seed1.txt, character for character. A change that only
# makes the program faster moves none of them; re-record a line only in
# a change whose purpose is to alter what the protocols decide.
set -euo pipefail
cd "$(dirname "$0")/../.."
recorded=.github/verdicts/seed1.txt
observed="$(mktemp)"
trap 'rm -f "$observed" "$observed.run"' EXIT
for workload in $(cut -d: -f1 "$recorded"); do
    bash benchmark/run.sh --workload "$workload" --seed 1 --seconds 0 > "$observed.run"
    tail -n 1 "$observed.run" | grep -q '"correct": true' \
        || { echo "verdict gate: $workload is not correct"; tail -n 1 "$observed.run"; exit 1; }
    tail -n 1 "$observed.run" | grep -q '"failed": 0,' \
        || { echo "verdict gate: $workload has failed cells"; tail -n 1 "$observed.run"; exit 1; }
    sed -n "s/^sim over the first 100 ops: /$workload: /p" "$observed.run" >> "$observed"
done
diff "$recorded" "$observed"
echo "verdict gate: every workload matches $recorded"
