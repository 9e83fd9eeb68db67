#!/usr/bin/env bash
# A/B two pre-built tpbench binaries on one workload: alternating runs per
# seed, then per end-to-end metric the median, quartiles and win count of
# each side, and a verdict against the metric's `bound` and `better` in
# BENCHMARK.json (read, never written): REGRESSION when the change's median
# is worse than the parent's by more than the bound, CLAIMABLE when the
# change wins at least 9 pairs in 10 and the medians lie further apart than
# the parent's q3 - q1. Exits non-zero when any run reports
# `correct: false` or `failed > 0`, so a wrong answer can never be read as a
# speed-up; a verdict never changes the exit status.
#
#   scripts/ab_tpbench.sh PARENT_BIN CHANGE_BIN WORKLOAD SECONDS SEED...
#
# Build each side's tpbench once from its own checkout
# (`cargo build --release --offline --manifest-path tpbench/Cargo.toml`),
# copy `tpbench/target/release/tpbench` out, and pass the two copies. The
# side that runs first alternates with the seed's position. Every run's
# result line is kept in $AB_LOG (default: ab_<workload>.log in $PWD).
# Two informational rows follow the metrics: minflt_per_stmt, the run's
# minor page faults (the child's ru_minflt, set-up included) over its
# statements, and ref_ms, the calibration kernel's mean time from the run's
# info line (`bench.ref_ms`), which shows whether the machine's speed moved
# between the two sides.
set -euo pipefail

if [ "$#" -lt 5 ]; then
    sed -n '2,23p' "$0" >&2
    exit 2
fi
parent=$1 change=$2 workload=$3 seconds=$4
shift 4
log=${AB_LOG:-ab_${workload}.log}
: >"$log"

# "name better bound" per end-to-end metric of BENCHMARK.json.
spec=$(python3 - "$(dirname "$0")/../BENCHMARK.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    for m in json.load(f)["end_to_end"]:
        print(m["name"], m["better"], m["bound"])
EOF
)

# Runs one binary; prints its result line with minflt_per_stmt and ref_ms
# appended.
run() {
    python3 - "$@" <<'EOF'
import re, resource, subprocess, sys
out = subprocess.run(sys.argv[1:], stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True).stdout
faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
samples = re.search(r'"samples": (\d+)', out)
n = int(samples.group(1)) if samples else 0
ref = re.search(r'"bench\.ref_ms": ([-+0-9.eE]+)', out)
for line in out.splitlines():
    if '"metrics"' in line:
        extra = ' "minflt_per_stmt": {"value": %.1f}' % (faults / n) if n else ""
        extra += ' "ref_ms": {"value": %s}' % ref.group(1) if ref else ""
        print(line + extra)
EOF
}

bad=0
n=0
for seed in "$@"; do
    if [ $((n % 2)) -eq 0 ]; then order="parent change"; else order="change parent"; fi
    n=$((n + 1))
    for side in $order; do
        if [ "$side" = parent ]; then bin=$parent; else bin=$change; fi
        line=$(run "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 || true)
        echo "$side $seed $line" >>"$log"
        case $line in
        *'"correct": true'*'"failed": 0,'*) ;;
        *)
            echo "BAD RUN ($side, seed $seed): ${line:-no result line}" >&2
            bad=1
            ;;
        esac
    done
done

# One row per metric: "side seed value" triples are paired by seed.
awk -v spec="$spec" '
function quantile(v, n, q,    h, lo) {
    h = (n - 1) * q + 1; lo = int(h)
    return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
}
# Sets med, q1 and q3 of one side of metric m; returns its run count.
function stats(side, m,    n, i, j, x, v) {
    n = 0
    for (i = 1; i <= seeds; i++) {
        if (!((side, seed[i], m) in val)) continue
        # insertion sort (portable: mawk has no asort)
        x = val[side, seed[i], m]
        for (j = n++; j >= 1 && v[j] > x; j--) v[j + 1] = v[j]
        v[j + 1] = x
    }
    if (n > 0) { med = quantile(v, n, 0.5); q1 = quantile(v, n, 0.25); q3 = quantile(v, n, 0.75) }
    return n
}
function summary(n) {
    return n == 0 ? "-" : sprintf("%.6g [%.6g-%.6g]", med, q1, q3)
}
BEGIN {
    lines = split(spec, line, "\n")
    for (i = 1; i <= lines; i++) {
        split(line[i], f, " ")
        better[f[1]] = f[2]; bound[f[1]] = f[3]
    }
}
{
    side = $1; s = $2
    if (!(s in seen)) { seen[s] = 1; seed[++seeds] = s }
    rest = $0
    while (match(rest, /"[a-z_]+": \{"value": [-+0-9.eE]+/)) {
        pair = substr(rest, RSTART, RLENGTH); rest = substr(rest, RSTART + RLENGTH)
        m = pair; sub(/^"/, "", m); sub(/".*/, "", m)
        x = pair; sub(/.*"value": /, "", x)
        val[side, s, m] = x + 0
        if (!(m in known)) { known[m] = 1; metric[++metrics] = m }
    }
}
END {
    printf "%-16s %-34s %-34s %-11s %s\n", "metric", "parent median [q1-q3]", "change median [q1-q3]", "change wins", "verdict"
    for (k = 1; k <= metrics; k++) {
        m = metric[k]; wins = 0; pairs = 0
        # A metric BENCHMARK.json does not declare (minflt_per_stmt,
        # ref_ms) counts as lower-is-better and gets no verdict.
        sign = better[m] == "higher" ? -1 : 1
        for (i = 1; i <= seeds; i++) {
            if (!(("parent", seed[i], m) in val) || !(("change", seed[i], m) in val)) continue
            pairs++
            if (sign * (val["change", seed[i], m] - val["parent", seed[i], m]) < 0) wins++
        }
        np = stats("parent", m); p = summary(np); pm = med; iqr = q3 - q1
        nc = stats("change", m); c = summary(nc); cm = med
        verdict = ""
        if ((m in bound) && np > 0 && nc > 0) {
            # How far the change median lies on the worse side of the parent.
            worse = sign * (cm - pm)
            if (worse > bound[m] * (pm < 0 ? -pm : pm)) verdict = "REGRESSION"
            else if (pairs > 0 && wins >= 0.9 * pairs && -worse > iqr) verdict = "CLAIMABLE"
        }
        printf "%-16s %-34s %-34s %-11s %s\n", m, p, c, wins "/" pairs, verdict
    }
}' "$log"

exit "$bad"
