#!/usr/bin/env sh
# The benchmark's simulated metrics over several seeds: one
# `benchmark/run.sh --trace 0` per workload and seed, a line per value,
# then each metric's median over the seeds. Run from the repository root:
#
#     sh sim_seeds.sh [--seeds "1987 42 7 311 1 2"] > after.tsv
#     sh sim_seeds.sh --delta before.tsv after.tsv
#
# Each run covers the five workloads. The simulated metrics run on the
# simulated clock, so they do not depend on `--seconds` (only the host
# pass does; the runs take 1 s) or on the machine. They do depend on the
# seed: `sim_ttfr_s` and `sim_ttfw_s` time
# the first operations after a boot, whose cost depends on where the arm
# and the log happen to be, and one seed can swing them by tens of per
# cent either way while the median over six holds still. A claim about
# them, or about any simulated metric, quotes the medians.
#
# Output lines are tab-separated: `value WORKLOAD SEED METRIC VALUE` for
# each run, then `median WORKLOAD - METRIC VALUE`. `--delta` reads two
# such files and prints, per workload and metric, the per-seed changes
# and the change of the medians, in per cent of the first file's value.
set -eu

METRICS="sim_ms_per_op sim_mb_per_s sim_op_p99_ms ios_per_op write_amp space_amp sim_ttfr_s sim_ttfw_s failed"

if [ "${1:-}" = "--delta" ]; then
    if [ "$#" -ne 3 ]; then
        echo "usage: sh sim_seeds.sh --delta BEFORE AFTER" >&2
        exit 2
    fi
    awk -F '\t' '
        function pct(a, b) { return a == 0 ? (b == 0 ? "0.00" : "inf") : sprintf("%+.2f", (b - a) * 100 / a) }
        FNR == 1 { file++ }
        $1 == "value" && file == 1 { before[$2 SUBSEP $3 SUBSEP $4] = $5 }
        $1 == "value" && file == 2 {
            key = $2 SUBSEP $4
            if (!(key in seen)) { seen[key] = 1; order[++n] = key }
            after[$2 SUBSEP $3 SUBSEP $4] = $5
            seeds[key] = seeds[key] " " $3
        }
        $1 == "median" && file == 1 { mb[$2 SUBSEP $4] = $5 }
        $1 == "median" && file == 2 { ma[$2 SUBSEP $4] = $5 }
        END {
            printf "%-12s %-14s %14s %14s %9s  %s\n", "workload", "metric", "median before", "median after", "change %", "per seed (seed:change %)"
            for (i = 1; i <= n; i++) {
                split(order[i], wm, SUBSEP)
                line = ""
                ns = split(seeds[order[i]], s, " ")
                for (j = 1; j <= ns; j++) {
                    k = wm[1] SUBSEP s[j] SUBSEP wm[2]
                    line = line " " s[j] ":" ((k in before) ? pct(before[k], after[k]) : "?")
                }
                change = (order[i] in mb) ? pct(mb[order[i]], ma[order[i]]) : "?"
                printf "%-12s %-14s %14s %14s %9s %s\n", wm[1], wm[2], mb[order[i]], ma[order[i]], change, line
            }
        }' "$2" "$3"
    exit 0
fi

seeds="1987 42 7 311 1 2"
while [ "$#" -gt 0 ]; do
    case "$1" in
        --seeds) seeds=$2; shift 2 ;;
        *)
            echo "usage: sh sim_seeds.sh [--seeds LIST]" >&2
            echo "       sh sim_seeds.sh --delta BEFORE AFTER" >&2
            exit 2
            ;;
    esac
done

for w in makedo mail_churn bulk_stream read_mostly crash_boot; do
    for s in $seeds; do
        # The result object is the last line the run prints.
        bash benchmark/run.sh --workload "$w" --seed "$s" --seconds 1 --trace 0 | tail -n 1 |
            awk -v w="$w" -v s="$s" -v metrics="$METRICS" '
                {
                    n = split(metrics, want, " ")
                    for (i = 1; i <= n; i++) {
                        m = want[i]
                        pat = (m == "failed") ? "\"failed\": [0-9.eE+-]+" : "\"" m "\": \\{\"value\": [0-9.eE+-]+"
                        if (match($0, pat)) {
                            v = substr($0, RSTART, RLENGTH)
                            v = substr(v, match(v, /[0-9.eE+-]+$/))
                            printf "value\t%s\t%s\t%s\t%s\n", w, s, m, v
                        }
                    }
                }'
    done
done | awk -F '\t' '
    { print; key = $2 SUBSEP $4; if (!(key in n)) order[++k] = key; vals[key, ++n[key]] = $5 }
    END {
        for (i = 1; i <= k; i++) {
            key = order[i]; m = n[key]
            # Insertion sort: a handful of seeds.
            for (a = 1; a <= m; a++) sorted[a] = vals[key, a] + 0
            for (a = 2; a <= m; a++) {
                x = sorted[a]
                for (b = a - 1; b >= 1 && sorted[b] > x; b--) sorted[b + 1] = sorted[b]
                sorted[b + 1] = x
            }
            med = (m % 2) ? sorted[(m + 1) / 2] : (sorted[m / 2] + sorted[m / 2 + 1]) / 2
            split(key, wm, SUBSEP)
            printf "median\t%s\t-\t%s\t%.9g\n", wm[1], wm[2], med
        }
    }'
