#!/usr/bin/env bash
# Build the benchmark offline and run it. One command prints every metric
# by name with its unit and checks every result against the born oracle.
#
#   run.sh                      all four workloads, untraced -> out/results.json
#   run.sh trace                all four workloads, traced   -> out/layers.json
#                               and out/trace-<workload>.jsonl
#   run.sh aa                   the untraced set on one build, three times a
#                               side, the side that goes first alternating;
#                               fails unless the two sides' medians agree
#                               within the bound on every primary pair of
#                               metric and workload (see README.md)
#   run.sh --workload NAME --seed N --seconds S --trace 0|1
#                               one run; the last line of output is one JSON
#                               object (this is what BENCHMARK.json invokes)
#
# Options for all/trace/aa: --seed N (default 1), --seconds S (default
# run_seconds of BENCHMARK.json), --quick (2 s phases, a smoke test).
# Repeats of aa use seeds N, N+1, ...: the same seeds on both sides.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$here/out"
workloads=(serve_point bulk_cycle train_stream mixed_rw)

mode=all
seed=1
seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$here/../BENCHMARK.json")"
workload=""
trace=0
while [ $# -gt 0 ]; do
    case "$1" in
        all|trace|aa) mode="$1"; shift ;;
        --quick) seconds=2; shift ;;
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --workload) workload="$2"; shift 2 ;;
        --trace) trace="$2"; shift 2 ;;
        *) echo "run.sh: unknown argument $1" >&2; sed -n '2,19p' "$0" >&2; exit 2 ;;
    esac
done

# The driver points CARGO_TARGET_DIR into its checkout; otherwise build
# beside the sources. A relative directory is relative to where we stand,
# for cargo and for us alike, because this script never changes directory.
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --quiet --release --offline --manifest-path "$here/Cargo.toml" --target-dir "$target"
bin="$target/release/bornsql-benchmark"
mkdir -p "$out"

if [ -n "$workload" ]; then
    exec "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" --out-dir "$out"
fi

# Run every workload once and collect the result lines into one JSON file.
run_set() { # <file> <trace>
    local file="$1" traced="$2" sep="" w
    printf '{"seed": %s, "seconds": %s, "workloads": {' "$seed" "$seconds" > "$file"
    for w in "${workloads[@]}"; do
        "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$traced" --out-dir "$out" \
            | tee "$out/last-run.txt"
        printf '%s"%s": %s' "$sep" "$w" "$(tail -n 1 "$out/last-run.txt")" >> "$file"
        sep=", "
        echo
    done
    printf '}}\n' >> "$file"
    rm -f "$out/last-run.txt"
    echo "wrote $file"
}

case "$mode" in
    all) run_set "$out/results.json" 0 ;;
    trace) run_set "$out/layers.json" 1 ;;
    aa)
        first_seed="$seed" a="" b=""
        for i in 1 2 3; do
            seed=$((first_seed + i - 1))
            # Slow drift in the host must not land on one side.
            if [ $((i % 2)) -eq 1 ]; then order="a b"; else order="b a"; fi
            for side in $order; do
                run_set "$out/results-$side$i.json" 0
            done
            a="$a${a:+,}$out/results-a$i.json"
            b="$b${b:+,}$out/results-b$i.json"
        done
        "$bin" compare "$a" "$b"
        ;;
esac
