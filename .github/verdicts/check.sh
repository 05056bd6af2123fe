#!/usr/bin/env bash
# The verdict gate: for every seed<N>.txt beside this script, runs each
# workload the file names once at seed N (the first 100 ops, no time
# box) and fails unless each run is correct with no failed cell and its
# simulated statistics — cells, rounds, messages, decided values,
# agreement violations, verdict digest — equal the recorded lines,
# character for character. A change that only makes the program faster
# moves none of them; re-record a line only in a change whose purpose is
# to alter what the protocols decide. Each of seed1.txt, seed7.txt and
# seed42.txt records all five workloads; seeds 7 and 42 are seeds no
# change was written against.
set -euo pipefail
cd "$(dirname "$0")/../.."
observed="$(mktemp)"
trap 'rm -f "$observed" "$observed.run"' EXIT
for recorded in .github/verdicts/seed*.txt; do
    seed="${recorded##*/seed}"
    seed="${seed%.txt}"
    : > "$observed"
    for workload in $(cut -d: -f1 "$recorded"); do
        bash benchmark/run.sh --workload "$workload" --seed "$seed" --seconds 0 > "$observed.run"
        tail -n 1 "$observed.run" | grep -q '"correct": true' \
            || { echo "verdict gate: $workload at seed $seed is not correct"; tail -n 1 "$observed.run"; exit 1; }
        tail -n 1 "$observed.run" | grep -q '"failed": 0,' \
            || { echo "verdict gate: $workload at seed $seed has failed cells"; tail -n 1 "$observed.run"; exit 1; }
        sed -n "s/^sim over the first 100 ops: /$workload: /p" "$observed.run" >> "$observed"
    done
    diff "$recorded" "$observed"
    echo "verdict gate: every workload matches $recorded"
done
