#!/usr/bin/env bash
# fleet_smoke.sh — end-to-end fault-tolerance drill for the campaign fleet.
#
# Runs the same short campaign twice: once uninterrupted in a single process
# (cmd/campaign), and once distributed across a campaignd coordinator and a
# small fleet of campaignworker processes under induced failures — a zombie
# client that takes a lease and goes silent (its lease must expire and be
# re-granted), and a worker SIGKILLed mid-run. The campaign must still
# finish, the coordinator's recovery counters must show the expiry and the
# re-lease actually happened, and the merged journal must be diff-clean
# against the single-process reference (campaignreport -diff exits 0).
#
# The drill also exercises the fleet observability surface: campaignd runs
# with -trace and -log-json, one worker is throttled so the coordinator
# must flag it as a straggler, /status is scraped mid-run (per-worker
# throughput, ETA, anomaly feed), and the stitched Perfetto trace is
# validated with campaignreport -check-trace after the merge. The other
# workers are throttled five times less (1 ms per point): on a fast machine
# an unthrottled worker finishes the whole list within a heartbeat or two,
# before it can be killed mid-run or measured next to the straggler.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
pids=()
cleanup() {
    for pid in "${pids[@]:-}"; do kill "$pid" 2>/dev/null || true; done
    rm -rf "$tmp"
}
trap cleanup EXIT

go build -o "$tmp/campaign" ./cmd/campaign
go build -o "$tmp/campaignd" ./cmd/campaignd
go build -o "$tmp/campaignworker" ./cmd/campaignworker
go build -o "$tmp/campaignreport" ./cmd/campaignreport

args=(-cpu avr -prog fib -stride 300)

echo "== reference: uninterrupted single-process campaign"
"$tmp/campaign" "${args[@]}" -journal "$tmp/reference.journal" > "$tmp/reference.out"

echo "== coordinator (8 shards, 2s lease TTL)"
"$tmp/campaignd" "${args[@]}" -shards 8 -lease-ttl 2s -heartbeat 400ms \
    -addr 127.0.0.1:0 -dir "$tmp/fleet" \
    -trace "$tmp/fleet.trace" -log-json "$tmp/campaignd.events" \
    > "$tmp/campaignd.out" 2> "$tmp/campaignd.err" &
dpid=$!
pids+=("$dpid")

# The coordinator announces its kernel-assigned port once planning is done.
base=""
for _ in $(seq 1 600); do
    base=$(sed -n 's#^coordinator: .* on \(http://[^ ]*\) .*#\1#p' "$tmp/campaignd.out" | head -n1)
    [ -n "$base" ] && break
    kill -0 "$dpid" 2>/dev/null || break
    sleep 0.1
done
if [ -z "$base" ]; then
    echo "FAIL: campaignd never announced its API address" >&2
    cat "$tmp/campaignd.out" "$tmp/campaignd.err" >&2
    exit 1
fi
echo "coordinator API at $base"

# Zombie: lease a shard and go silent. This guarantees at least one lease
# expiry + re-grant even if the SIGKILLed worker below dies between shards,
# and its shard cannot complete until the TTL has actually lapsed.
zlease=$(curl -fsS -X POST -d '{"worker":"smoke-zombie"}' "$base/v1/lease")
case "$zlease" in
*'"status":"lease"'*) ;;
*)
    echo "FAIL: zombie lease request returned: $zlease" >&2
    exit 1
    ;;
esac

echo "== worker SIGKILLed mid-run"
"$tmp/campaignworker" -coordinator "$base" -name victim -dir "$tmp/victim" -throttle 1ms \
    > "$tmp/victim.out" 2>&1 &
vpid=$!
pids+=("$vpid")
sleep 1.5
kill -KILL "$vpid" 2>/dev/null || true
wait "$vpid" 2>/dev/null || true

echo "== honest workers finish the campaign (slowpoke throttled to force a straggler)"
"$tmp/campaignworker" -coordinator "$base" -name slowpoke -dir "$tmp/slowpoke" \
    -throttle 5ms > "$tmp/slowpoke.out" 2>&1 &
pids+=("$!")
sleep 0.3
for w in w2 w3; do
    "$tmp/campaignworker" -coordinator "$base" -name "$w" -dir "$tmp/$w" -throttle 1ms \
        > "$tmp/$w.out" 2>&1 &
    pids+=("$!")
done

echo "== scraping /status mid-run"
saw_rate=0 saw_eta=0 saw_straggler=0
for _ in $(seq 1 300); do
    kill -0 "$dpid" 2>/dev/null || break
    status=$(curl -fsS "$base/status" 2>/dev/null) || { sleep 0.2; continue; }
    if printf '%s' "$status" | jq -e '[.workers[]? | select(.rate > 0)] | length >= 2' > /dev/null; then
        saw_rate=1
    fi
    if printf '%s' "$status" | jq -e '.progress.eta_seconds >= 0 and .progress.points_done > 0' > /dev/null; then
        saw_eta=1
    fi
    if printf '%s' "$status" | jq -e 'any(.anomalies[]?; .type == "straggler" and .subject == "slowpoke")' > /dev/null; then
        saw_straggler=1
    fi
    [ "$saw_rate$saw_eta$saw_straggler" = "111" ] && break
    sleep 0.2
done
if [ "$saw_rate$saw_eta$saw_straggler" != "111" ]; then
    echo "FAIL: /status never showed live fleet telemetry (rates=$saw_rate eta=$saw_eta straggler=$saw_straggler)" >&2
    curl -fsS "$base/status" >&2 || true
    cat "$tmp/campaignd.events" >&2 || true
    exit 1
fi
echo "live /status OK: per-worker rates, converging ETA, slowpoke flagged as straggler"

# The coordinator exits 0 on its own once every shard is merged.
for _ in $(seq 1 1200); do
    kill -0 "$dpid" 2>/dev/null || break
    sleep 0.5
done
if kill -0 "$dpid" 2>/dev/null; then
    echo "FAIL: campaign did not merge within the deadline" >&2
    curl -fsS "$base/v1/status" >&2 || true
    cat "$tmp"/w?.out >&2
    exit 1
fi
rc=0
wait "$dpid" || rc=$?
if [ "$rc" -ne 0 ]; then
    echo "FAIL: campaignd exited $rc" >&2
    cat "$tmp/campaignd.out" "$tmp/campaignd.err" >&2
    exit 1
fi
grep -q 'shards merged into' "$tmp/campaignd.out" || {
    echo "FAIL: campaignd finished without merging" >&2
    cat "$tmp/campaignd.out" >&2
    exit 1
}

# The recovery machinery must have actually fired: the zombie's (and
# possibly the victim's) leases expired and were re-granted to honest
# workers. campaignd prints the counters on its final fleet: line.
fleetline=$(grep '^fleet:' "$tmp/campaignd.out")
echo "$fleetline"
expired=$(printf '%s\n' "$fleetline" | sed -n 's/.* \([0-9][0-9]*\) expired.*/\1/p')
regrants=$(printf '%s\n' "$fleetline" | sed -n 's/.* \([0-9][0-9]*\) re-leased.*/\1/p')
if [ "${expired:-0}" -le 0 ] || [ "${regrants:-0}" -le 0 ]; then
    echo "FAIL: no lease expiry/re-grant recorded (expired=${expired:-missing} re-leased=${regrants:-missing})" >&2
    cat "$tmp/campaignd.out" "$tmp/campaignd.err" >&2
    exit 1
fi

echo "== straggler anomaly hit the structured event log"
grep -q '"event":"anomaly.straggler"' "$tmp/campaignd.events" || {
    echo "FAIL: no anomaly.straggler event logged" >&2
    cat "$tmp/campaignd.events" >&2
    exit 1
}

echo "== stitched trace parses and its spans nest"
"$tmp/campaignreport" -check-trace "$tmp/fleet.trace" > "$tmp/trace-check.out" || {
    echo "FAIL: stitched trace failed validation" >&2
    cat "$tmp/trace-check.out" >&2
    exit 1
}
cat "$tmp/trace-check.out"
# The planner may cut fewer shards than requested (cycle-boundary
# rounding); the stitched trace must cover exactly the planned count.
planned=$(sed -n 's/^coordinator: .* in \([0-9][0-9]*\) shards .*/\1/p' "$tmp/campaignd.out" | head -n1)
grep -q "${planned:-8} process groups" "$tmp/trace-check.out" || {
    echo "FAIL: stitched trace does not cover all $planned shards" >&2
    exit 1
}

echo "== merged journal is diff-clean against the single-process reference"
merged="$tmp/fleet/campaign.journal"
"$tmp/campaignreport" "$merged" > "$tmp/report.out"
grep -q 'classified' "$tmp/report.out" || {
    echo "FAIL: campaignreport could not summarize the merged journal" >&2
    cat "$tmp/report.out" >&2
    exit 1
}
"$tmp/campaignreport" -diff "$tmp/reference.journal" "$merged" > "$tmp/diff.out" || {
    echo "FAIL: reference-vs-merged diff reported regressions" >&2
    cat "$tmp/diff.out" >&2
    exit 1
}
grep -q '^regressions: none' "$tmp/diff.out" || {
    echo "FAIL: reference-vs-merged diff did not end clean" >&2
    cat "$tmp/diff.out" >&2
    exit 1
}

echo "fleet-smoke: OK"
