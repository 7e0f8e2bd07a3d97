#!/usr/bin/env bash
# campaign_smoke.sh — end-to-end crash-resume smoke test for cmd/campaign.
#
# Runs a short campaign three ways: uninterrupted, interrupted mid-flight
# (deterministically, after 3 classified points), and resumed from the
# journal the interrupted run left behind. The resumed run must reproduce
# the uninterrupted result exactly. A real-SIGINT variant exercises the
# signal path as well, tolerating the race between signal delivery and
# campaign completion.
#
# Before that, out-of-range -lanes values must be refused up front by
# cmd/campaign and cmd/campaignworker; an unknown -cpu or -prog name must be
# a usage error in every front end that takes one; prune and tracesim must
# run once with valid names; and examples/hafi-campaign must pass its own
# soundness checks.
#
# A further section starts a campaign with -metrics-addr and scrapes the
# live /metrics endpoint mid-flight: the injection and journal counters must
# be non-zero while the campaign is still running.
#
# The final section exercises cmd/campaignreport: a pruned campaign pair
# (clean, and crash+resume) is analyzed and diffed — the resumed journal must
# show zero regressions against the clean baseline, and a journal diffed
# against itself must always be clean. A -trace run checks the Chrome
# trace-event output is well-formed.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

for bin in campaign campaignworker campaignd prune tracesim matesearch netlistlint; do
    go build -o "$tmp/$bin" ./cmd/$bin
done
args=(-cpu avr -prog fib -stride 300 -noprune)

echo "== -lanes is validated before any work"
# A lane count that is not a multiple of 64, or above 65536, is a usage
# error (exit 2). The worker points at a port nothing listens on: it must
# refuse before its first request, not after the spec fetch's retries.
for bad in 100 65600; do
    rc=0
    timeout 20 "$tmp/campaign" "${args[@]}" -lanes "$bad" > /dev/null 2>&1 || rc=$?
    if [ "$rc" -ne 2 ]; then
        echo "FAIL: campaign -lanes $bad exited $rc, want 2" >&2
        exit 1
    fi
    rc=0
    timeout 20 "$tmp/campaignworker" -coordinator http://127.0.0.1:1 -lanes "$bad" \
        > /dev/null 2>&1 || rc=$?
    if [ "$rc" -ne 2 ]; then
        echo "FAIL: campaignworker -lanes $bad exited $rc, want 2" >&2
        exit 1
    fi
done

echo "== -cpu and -prog names are validated before any work"
# Every front end resolves its names through one table; an unknown name is
# a usage error (exit 2). The extra flags keep a binary that wrongly accepts
# the name away from long work (and campaignd from a missing -dir).
expect_usage() {
    local rc=0
    timeout 60 "$@" > /dev/null 2>&1 || rc=$?
    if [ "$rc" -ne 2 ]; then
        echo "FAIL: ${*#"$tmp/"} exited $rc, want 2" >&2
        exit 1
    fi
}
quick_args() {
    case "$1" in
    campaign) echo "-stride 100000 -noprune" ;;
    campaignd) echo "-dir $tmp/names -addr 127.0.0.1:0 -noprune" ;;
    prune) echo "-intercycle -cycles 50" ;;
    tracesim) echo "-cycles 50 -o $tmp/names.vcd" ;;
    matesearch) echo "-export $tmp/names.v" ;;
    esac
}
for bin in campaign campaignd prune tracesim matesearch netlistlint; do
    # shellcheck disable=SC2046
    expect_usage "$tmp/$bin" $(quick_args "$bin") -cpu bogus
done
for bin in campaign campaignd prune tracesim; do
    # shellcheck disable=SC2046
    expect_usage "$tmp/$bin" $(quick_args "$bin") -prog bogus
done

echo "== prune and tracesim with valid names"
"$tmp/prune" -cpu avr -prog fib -intercycle -cycles 500 > "$tmp/prune.out"
grep -q '^provably benign:' "$tmp/prune.out" || {
    echo "FAIL: prune -intercycle printed no result" >&2
    cat "$tmp/prune.out" >&2
    exit 1
}
"$tmp/tracesim" -cpu msp430 -prog conv -cycles 500 -o "$tmp/trace.vcd" > /dev/null
[ -s "$tmp/trace.vcd" ] || {
    echo "FAIL: tracesim wrote no VCD" >&2
    exit 1
}

echo "== examples/hafi-campaign"
# The example's own checks gate: it exits non-zero on a validation
# violation or when pruning changes the SDC or hang count.
go run ./examples/hafi-campaign > "$tmp/example.out" || {
    echo "FAIL: examples/hafi-campaign failed" >&2
    cat "$tmp/example.out" >&2
    exit 1
}
grep -q ', 0 violations$' "$tmp/example.out" &&
    grep -q 'SDC and hang counts unchanged' "$tmp/example.out" || {
    echo "FAIL: examples/hafi-campaign did not report a clean validation" >&2
    cat "$tmp/example.out" >&2
    exit 1
}

# Stable result lines: everything except timing.
summary() {
    grep -E '^(campaign|pruned|outcomes):' "$1"
    awk '/^executed:/ { print $1, $2 }' "$1"
}

echo "== clean run"
"$tmp/campaign" "${args[@]}" > "$tmp/clean.out"
summary "$tmp/clean.out"

echo "== interrupted run (cancel after 3 points)"
rc=0
"$tmp/campaign" "${args[@]}" -journal "$tmp/smoke.journal" -interruptafter 3 \
    > "$tmp/partial.out" || rc=$?
if [ "$rc" -ne 130 ]; then
    echo "FAIL: interrupted run exited $rc, want 130" >&2
    cat "$tmp/partial.out" >&2
    exit 1
fi
grep -q 'interrupted: true' "$tmp/partial.out" || {
    echo "FAIL: no 'interrupted: true' marker in partial output" >&2
    cat "$tmp/partial.out" >&2
    exit 1
}

echo "== resumed run"
"$tmp/campaign" "${args[@]}" -journal "$tmp/smoke.journal" -resume > "$tmp/resumed.out"
grep -q '^resumed:' "$tmp/resumed.out" || {
    echo "FAIL: resumed run replayed nothing" >&2
    cat "$tmp/resumed.out" >&2
    exit 1
}

summary "$tmp/clean.out"   > "$tmp/clean.sum"
summary "$tmp/resumed.out" > "$tmp/resumed.sum"
if ! diff -u "$tmp/clean.sum" "$tmp/resumed.sum"; then
    echo "FAIL: resumed result differs from uninterrupted run" >&2
    exit 1
fi

echo "== batched engine: -workers sharding and convergence early-exit"
"$tmp/campaign" "${args[@]}" -workers 2 -stats-json "$tmp/batched-stats.json" \
    > "$tmp/batched.out"
summary "$tmp/batched.out" > "$tmp/batched.sum"
diff -u "$tmp/clean.sum" "$tmp/batched.sum" || {
    echo "FAIL: -workers 2 result differs from clean run" >&2
    exit 1
}
# The convergence counters must be live: this workload retires experiments
# early, so a zero counter means the early-exit silently stopped firing.
counter() {
    sed -n "s/.*\"$2\": *\([0-9][0-9]*\).*/\1/p" "$1" | head -n1
}
conv=$(counter "$tmp/batched-stats.json" campaign_converged_total)
saved=$(counter "$tmp/batched-stats.json" campaign_cycles_saved_total)
if [ "${conv:-0}" -le 0 ] || [ "${saved:-0}" -le 0 ]; then
    echo "FAIL: convergence counters not live (converged=${conv:-missing} cycles_saved=${saved:-missing})" >&2
    cat "$tmp/batched-stats.json" >&2
    exit 1
fi
echo "convergence counters: converged=$conv cycles_saved=$saved"

# With the exit disabled every experiment runs to completion: same verdicts,
# zero convergence credit.
"$tmp/campaign" "${args[@]}" -no-early-exit -stats-json "$tmp/full-stats.json" \
    > "$tmp/fullrun.out"
summary "$tmp/fullrun.out" > "$tmp/fullrun.sum"
diff -u "$tmp/clean.sum" "$tmp/fullrun.sum" || {
    echo "FAIL: -no-early-exit result differs from clean run" >&2
    exit 1
}
fullconv=$(counter "$tmp/full-stats.json" campaign_converged_total)
if [ "${fullconv:-0}" -ne 0 ]; then
    echo "FAIL: -no-early-exit run still converged $fullconv experiments" >&2
    exit 1
fi

echo "== real SIGINT"
rc=0
"$tmp/campaign" "${args[@]}" -journal "$tmp/sigint.journal" > "$tmp/sigint.out" &
pid=$!
sleep 0.3
kill -INT "$pid" 2>/dev/null || true
wait "$pid" || rc=$?
if [ "$rc" -eq 130 ]; then
    # Interrupted in flight: the journal must resume to the clean result.
    "$tmp/campaign" "${args[@]}" -journal "$tmp/sigint.journal" -resume > "$tmp/sigint2.out"
    summary "$tmp/sigint2.out" > "$tmp/sigint2.sum"
    diff -u "$tmp/clean.sum" "$tmp/sigint2.sum" || {
        echo "FAIL: SIGINT-resumed result differs from uninterrupted run" >&2
        exit 1
    }
elif [ "$rc" -eq 0 ]; then
    # Campaign won the race against the signal: result must match anyway.
    summary "$tmp/sigint.out" > "$tmp/sigint.sum"
    diff -u "$tmp/clean.sum" "$tmp/sigint.sum" || {
        echo "FAIL: SIGINT-run (completed) result differs from clean run" >&2
        exit 1
    }
else
    echo "FAIL: SIGINT run exited $rc, want 0 or 130" >&2
    cat "$tmp/sigint.out" >&2
    exit 1
fi

echo "== live /metrics scrape"
"$tmp/campaign" "${args[@]}" -journal "$tmp/metrics.journal" \
    -metrics-addr 127.0.0.1:0 -stats-json "$tmp/stats.json" \
    > "$tmp/metrics.out" 2> "$tmp/metrics.err" &
pid=$!

# The CLI announces the bound address (port 0 = kernel-assigned) on stderr.
addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's/^metrics: serving on //p' "$tmp/metrics.err" | head -n1)
    [ -n "$addr" ] && break
    kill -0 "$pid" 2>/dev/null || break
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "FAIL: campaign never announced its metrics address" >&2
    cat "$tmp/metrics.err" >&2
    exit 1
fi

# Poll the endpoint while the campaign runs; require non-zero injection and
# journal counters from a live scrape (not just the end-of-run stats dump).
scraped=0
while kill -0 "$pid" 2>/dev/null; do
    if body=$(curl -fsS --max-time 2 "http://$addr/metrics" 2>/dev/null); then
        inj=$(printf '%s\n' "$body" | awk '$1 == "campaign_injections_total" {print $2; exit}')
        app=$(printf '%s\n' "$body" | awk '$1 == "journal_appends_total" {print $2; exit}')
        if [ "${inj:-0}" -gt 0 ] 2>/dev/null && [ "${app:-0}" -gt 0 ] 2>/dev/null; then
            echo "live scrape at $addr: campaign_injections_total=$inj journal_appends_total=$app"
            scraped=1
            break
        fi
    fi
    sleep 0.1
done
wait "$pid" || {
    echo "FAIL: metrics-instrumented campaign failed" >&2
    cat "$tmp/metrics.out" "$tmp/metrics.err" >&2
    exit 1
}
if [ "$scraped" -ne 1 ]; then
    echo "FAIL: never scraped non-zero injection/journal counters from live /metrics" >&2
    cat "$tmp/metrics.err" >&2
    exit 1
fi
grep -q '"campaign_points_done_total"' "$tmp/stats.json" || {
    echo "FAIL: -stats-json dump is missing campaign counters" >&2
    cat "$tmp/stats.json" >&2
    exit 1
}

echo "== campaignreport analysis"
go build -o "$tmp/campaignreport" ./cmd/campaignreport
pargs=(-cpu avr -prog fib -stride 300)   # pruning on: journals carry attribution

"$tmp/campaign" "${pargs[@]}" -journal "$tmp/pruned-clean.journal" \
    -trace "$tmp/clean.trace" > "$tmp/pruned-clean.out"
rc=0
"$tmp/campaign" "${pargs[@]}" -journal "$tmp/pruned-crash.journal" -interruptafter 3 \
    > /dev/null || rc=$?
if [ "$rc" -ne 130 ]; then
    echo "FAIL: pruned interrupted run exited $rc, want 130" >&2
    exit 1
fi
"$tmp/campaign" "${pargs[@]}" -journal "$tmp/pruned-crash.journal" -resume > /dev/null

"$tmp/campaignreport" "$tmp/pruned-clean.journal" > "$tmp/report.out"
grep -Eq '^attribution: [1-9]' "$tmp/report.out" || {
    echo "FAIL: campaignreport credited no pruned points to any MATE" >&2
    cat "$tmp/report.out" >&2
    exit 1
}
grep -q 'classified' "$tmp/report.out" || {
    echo "FAIL: campaignreport output is missing the coverage summary" >&2
    cat "$tmp/report.out" >&2
    exit 1
}
"$tmp/campaignreport" -format json "$tmp/pruned-clean.journal" > /dev/null
"$tmp/campaignreport" -format csv "$tmp/pruned-clean.journal" > /dev/null

# Crash+resume must be point-for-point no worse than the clean run.
"$tmp/campaignreport" -diff "$tmp/pruned-clean.journal" "$tmp/pruned-crash.journal" \
    > "$tmp/diff.out" || {
    echo "FAIL: clean-vs-resumed diff reported regressions" >&2
    cat "$tmp/diff.out" >&2
    exit 1
}
grep -q '^regressions: none' "$tmp/diff.out" || {
    echo "FAIL: clean-vs-resumed diff did not end clean" >&2
    cat "$tmp/diff.out" >&2
    exit 1
}

# A journal diffed against itself is clean by definition.
"$tmp/campaignreport" -diff "$tmp/pruned-clean.journal" "$tmp/pruned-clean.journal" \
    > /dev/null || {
    echo "FAIL: self-diff reported regressions" >&2
    exit 1
}

# The -trace file must be a well-formed Chrome trace-event document.
grep -q '"traceEvents"' "$tmp/clean.trace" || {
    echo "FAIL: -trace output is missing the traceEvents array" >&2
    head -c 500 "$tmp/clean.trace" >&2
    exit 1
}

echo "== fault models: mbu crash-resume, intermittent, cross-model report"
margs=(-cpu avr -prog fib -stride 1000 -fault-model mbu:2)

"$tmp/campaign" "${margs[@]}" -journal "$tmp/mbu-clean.journal" > "$tmp/mbu-clean.out"
grep -q 'model mbu:2' "$tmp/mbu-clean.out" || {
    echo "FAIL: campaign output does not name the fault model" >&2
    cat "$tmp/mbu-clean.out" >&2
    exit 1
}
rc=0
"$tmp/campaign" "${margs[@]}" -journal "$tmp/mbu-crash.journal" -interruptafter 3 \
    > /dev/null || rc=$?
if [ "$rc" -ne 130 ]; then
    echo "FAIL: interrupted mbu run exited $rc, want 130" >&2
    exit 1
fi
"$tmp/campaign" "${margs[@]}" -journal "$tmp/mbu-crash.journal" -resume > "$tmp/mbu-resumed.out"
summary "$tmp/mbu-clean.out"   > "$tmp/mbu-clean.sum"
summary "$tmp/mbu-resumed.out" > "$tmp/mbu-resumed.sum"
diff -u "$tmp/mbu-clean.sum" "$tmp/mbu-resumed.sum" || {
    echo "FAIL: resumed mbu result differs from uninterrupted run" >&2
    exit 1
}
# Crash+resume must be point-for-point no worse than the clean mbu run.
"$tmp/campaignreport" -diff "$tmp/mbu-clean.journal" "$tmp/mbu-crash.journal" \
    > "$tmp/mbu-diff.out" || {
    echo "FAIL: mbu clean-vs-resumed diff reported regressions" >&2
    cat "$tmp/mbu-diff.out" >&2
    exit 1
}
grep -q '^regressions: none' "$tmp/mbu-diff.out" || {
    echo "FAIL: mbu clean-vs-resumed diff did not end clean" >&2
    cat "$tmp/mbu-diff.out" >&2
    exit 1
}
# The per-model breakdown must name the model in the report.
"$tmp/campaignreport" "$tmp/mbu-clean.journal" > "$tmp/mbu-report.out"
grep -q '^models:' "$tmp/mbu-report.out" && grep -q 'mbu' "$tmp/mbu-report.out" || {
    echo "FAIL: campaignreport is missing the per-model breakdown" >&2
    cat "$tmp/mbu-report.out" >&2
    exit 1
}

# An intermittent-fault campaign end to end, journal recovered and reported.
"$tmp/campaign" -cpu avr -prog fib -stride 1000 -fault-model intermittent:2,6 \
    -journal "$tmp/int.journal" > "$tmp/int.out"
grep -q 'model intermittent:2,6' "$tmp/int.out" || {
    echo "FAIL: intermittent campaign did not echo its model" >&2
    cat "$tmp/int.out" >&2
    exit 1
}
"$tmp/campaignreport" "$tmp/int.journal" > "$tmp/int-report.out"
grep -q 'intermittent' "$tmp/int-report.out" || {
    echo "FAIL: intermittent journal report names no model" >&2
    cat "$tmp/int-report.out" >&2
    exit 1
}

# Cross-model site comparison (informational: always exit 0).
"$tmp/campaignreport" -diff-models "$tmp/pruned-clean.journal" "$tmp/mbu-clean.journal" \
    > "$tmp/models-diff.out" || {
    echo "FAIL: -diff-models exited non-zero" >&2
    cat "$tmp/models-diff.out" >&2
    exit 1
}
grep -q '^model diff:' "$tmp/models-diff.out" || {
    echo "FAIL: -diff-models produced no comparison" >&2
    cat "$tmp/models-diff.out" >&2
    exit 1
}

echo "campaign-smoke: OK"
