#!/usr/bin/env sh
# e2e_smoke.sh — black-box smoke of the makespand service against the
# CLIs: build the real binaries, start the daemon, drive submit →
# estimate → sweep with curl and diff every response against `makespan
# -format json` / `experiments -format json` output for the same inputs.
# Timing fields (wall clock) are zeroed on both sides before diffing;
# everything else must match byte for byte. The case table lives in
# docs/E2E.md; internal/service/e2e_test.go runs the same checks as a Go
# test.
#
# Usage: scripts/e2e_smoke.sh [port]   (default 17319)
set -eu

cd "$(dirname "$0")/.."
port="${1:-17319}"
base="http://127.0.0.1:$port"
bin="$(mktemp -d)"
work="$(mktemp -d)"
pid=""
cleanup() {
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    rm -rf "$bin" "$work"
}
trap cleanup EXIT INT TERM

echo "== build"
go build -o "$bin/" ./cmd/makespand ./cmd/makespan ./cmd/experiments ./cmd/schedsim

echo "== start makespand on $base"
"$bin/makespand" -addr "127.0.0.1:$port" -workers 2 2>"$work/makespand.log" &
pid=$!

# normalize: zero wall-clock fields so diffs see only deterministic bytes.
normalize() {
    sed -E 's/"(mc_time_seconds|time_seconds|uptime_seconds)": [-+0-9.eE]+/"\1": 0/'
}

# Readiness: poll with a hard deadline, but fail fast — with the log —
# the moment the daemon process dies, instead of sitting out the budget.
i=0
until curl -fsS --max-time 2 "$base/healthz" >"$work/healthz.json" 2>/dev/null; do
    if ! kill -0 "$pid" 2>/dev/null; then
        echo "makespand died during startup; log:" >&2
        cat "$work/makespand.log" >&2
        exit 1
    fi
    i=$((i + 1))
    if [ "$i" -ge 300 ]; then
        echo "makespand did not come up within 30s; log:" >&2
        cat "$work/makespand.log" >&2
        exit 1
    fi
    sleep 0.1
done

echo "== E1 healthz"
test "$(jq -r .status "$work/healthz.json")" = "ok"

echo "== E2 submit + get graph"
curl -fsS -X POST "$base/v1/graphs" -d '{"kind":"lu","k":8}' >"$work/submit.json"
gid="$(jq -r .id "$work/submit.json")"
case "$gid" in sha256:*) ;; *)
    echo "bad graph id $gid" >&2
    exit 1
    ;;
esac
curl -fsS "$base/v1/graphs/$gid" | jq -e '.cache' >/dev/null
# Resubmission dedups onto the same id.
test "$(curl -fsS -X POST "$base/v1/graphs" -d '{"kind":"lu","k":8}' | jq -r .id)" = "$gid"

echo "== E3 estimate parity vs makespan CLI"
req='{"kind":"lu","k":8,"pfail":0.001,"methods":"paper","trials":2000,"seed":7}'
curl -fsS -X POST "$base/v1/estimate" -d "$req" | normalize >"$work/svc_est.json"
"$bin/makespan" -kind lu -k 8 -pfail 0.001 -methods paper -trials 2000 -seed 7 -format json |
    normalize >"$work/cli_est.json"
diff -u "$work/cli_est.json" "$work/svc_est.json"

echo "== E4 warm estimate identical to cold"
curl -fsS -X POST "$base/v1/estimate" -d "$req" | normalize >"$work/svc_est2.json"
diff -u "$work/svc_est.json" "$work/svc_est2.json"

echo "== E5 quantiles + bounds parity"
req5='{"graph_id":"'"$gid"'","pfail":0.01,"methods":"all","trials":3000,"seed":11,"bounds":true,"quantiles":[0.5,0.95,0.99]}'
curl -fsS -X POST "$base/v1/estimate" -d "$req5" | normalize >"$work/svc_q.json"
"$bin/makespan" -kind lu -k 8 -pfail 0.01 -methods all -trials 3000 -seed 11 -bounds \
    -quantiles 0.5,0.95,0.99 -format json | normalize >"$work/cli_q.json"
diff -u "$work/cli_q.json" "$work/svc_q.json"

echo "== E6 default sweep parity vs experiments CLI"
curl -fsS -X POST "$base/v1/sweep" -d '{"trials":2000,"seed":7}' | normalize >"$work/svc_sweep.json"
"$bin/experiments" -sweep -format json -trials 2000 -seed 7 2>/dev/null | normalize >"$work/cli_sweep.json"
diff -u "$work/cli_sweep.json" "$work/svc_sweep.json"

echo "== E7 custom sweep parity"
curl -fsS -X POST "$base/v1/sweep" \
    -d '{"kind":"qr","k":6,"pfails":[0.1,0.01],"trials":1500,"seed":3,"methods":"all"}' |
    normalize >"$work/svc_sweep2.json"
"$bin/experiments" -sweep -sweep-kind qr -sweep-k 6 -sweep-pfails 0.1,0.01 \
    -format json -trials 1500 -seed 3 -all-methods 2>/dev/null | normalize >"$work/cli_sweep2.json"
diff -u "$work/cli_sweep2.json" "$work/svc_sweep2.json"

echo "== E8 submitted graph file parity"
go run ./cmd/daggen -kind cholesky -k 5 -json "$work/g.json"
printf '{"graph":%s}' "$(cat "$work/g.json")" >"$work/submit_g.json"
gid2="$(curl -fsS -X POST "$base/v1/graphs" -d @"$work/submit_g.json" | jq -r .id)"
curl -fsS -X POST "$base/v1/estimate" \
    -d '{"graph_id":"'"$gid2"'","pfail":0.01,"methods":"paper","trials":1000,"seed":5}' |
    normalize >"$work/svc_file.json"
"$bin/makespan" -graph "$work/g.json" -pfail 0.01 -methods paper -trials 1000 -seed 5 -format json |
    normalize >"$work/cli_file.json"
diff -u "$work/cli_file.json" "$work/svc_file.json"

echo "== E9 error handling"
code="$(curl -s -o /dev/null -w '%{http_code}' -X POST "$base/v1/estimate" -d '{"graph_id":"sha256:gone"}')"
test "$code" = "404"
code="$(curl -s -o /dev/null -w '%{http_code}' -X POST "$base/v1/estimate" -d '{"kind":"lu","k":8,"pfail":2}')"
test "$code" = "400"
code="$(curl -s -o /dev/null -w '%{http_code}' -X POST "$base/v1/schedule" -d '{"kind":"lu","k":8,"procs":0}')"
test "$code" = "400"

echo "== E10 schedule parity vs schedsim CLI"
req10='{"kind":"lu","k":8,"procs":4,"pfail":0.01,"trials":2000,"seed":7,"quantiles":[0.5,0.99]}'
curl -fsS -X POST "$base/v1/schedule" -d "$req10" | normalize >"$work/svc_sched.json"
"$bin/schedsim" -kind lu -k 8 -procs 4 -pfail 0.01 -trials 2000 -seed 7 \
    -quantiles 0.5,0.99 -format json | normalize >"$work/cli_sched.json"
diff -u "$work/cli_sched.json" "$work/svc_sched.json"

echo "== E11 warm schedule identical + artifact cached"
curl -fsS -X POST "$base/v1/schedule" -d "$req10" | normalize >"$work/svc_sched2.json"
diff -u "$work/svc_sched.json" "$work/svc_sched2.json"
gid_lu8="$(curl -fsS -X POST "$base/v1/graphs" -d '{"kind":"lu","k":8}' | jq -r .id)"
scheds="$(curl -fsS "$base/v1/graphs/$gid_lu8" | jq -r .cache.schedules)"
test "$scheds" -ge 2

echo "== E12 resolver stats (GET /v1/cache)"
curl -fsS "$base/v1/cache" >"$work/cache.json"
# Every declared kind is present, zeroed or not.
for kind in graph plan mc sched snap; do
    jq -e --arg k "$kind" '.kinds[$k] | has("hits") and has("misses") and has("evictions") and has("resident") and has("resident_bytes")' \
        "$work/cache.json" >/dev/null
done
# The cases above left at least: two graphs (lu k=8 + the submitted
# cholesky), per-λ MC estimators, and both policies' frozen schedules.
test "$(jq -r .kinds.graph.resident "$work/cache.json")" -ge 2
test "$(jq -r .kinds.mc.resident "$work/cache.json")" -ge 2
test "$(jq -r .kinds.sched.resident "$work/cache.json")" -ge 2
# Warm traffic (E4/E11 reruns, resubmissions) must register as hits.
test "$(jq -r .kinds.graph.hits "$work/cache.json")" -ge 1
test "$(jq -r .used_bytes "$work/cache.json")" -gt 0

echo "== E13 /metrics scrape shape + counter increments"
curl -fsS "$base/metrics" >"$work/metrics.prom"
# Required families are typed, and the estimate route has a real
# cumulative histogram (the +Inf bucket is the observation count).
grep -q '^# TYPE makespand_http_requests_total counter$' "$work/metrics.prom"
grep -q '^# TYPE makespand_http_request_duration_seconds histogram$' "$work/metrics.prom"
grep -q '^makespand_http_request_duration_seconds_bucket{route="/v1/estimate",le="+Inf"} [1-9]' "$work/metrics.prom"
grep -q '^makespand_http_requests_in_flight ' "$work/metrics.prom"
grep -q '^makespand_requests_shed_total 0$' "$work/metrics.prom"
# Every artifact kind reports cache series (same kinds E12 checked).
for kind in graph plan mc sched snap; do
    grep -q "^makespand_cache_hits_total{kind=\"$kind\"} " "$work/metrics.prom"
    grep -q "^makespand_cache_resident_bytes{kind=\"$kind\"} " "$work/metrics.prom"
done
# One more estimate moves the route's request counter by exactly one.
before="$(grep '^makespand_http_requests_total{route="/v1/estimate",code="200"}' "$work/metrics.prom" | awk '{print $2}')"
curl -fsS -X POST "$base/v1/estimate" -d "$req" >/dev/null
after="$(curl -fsS "$base/metrics" | grep '^makespand_http_requests_total{route="/v1/estimate",code="200"}' | awk '{print $2}')"
test "$after" = "$((before + 1))"

echo "== E14 structured access-log line shape"
# The daemon runs with the default -access-log=true; its stderr is
# $work/makespand.log. Every request must have left one event=request
# line with the documented fields in order. The line is written after
# the response is flushed; give the last one a beat to land.
sleep 0.3
grep -Eq '^event=request method=POST route=/v1/estimate status=200 bytes=[0-9]+ dur_ms=[0-9.]+ deadline_ms=0 outcome=ok$' "$work/makespand.log"
grep -Eq '^event=request method=GET route=/metrics status=200 bytes=[0-9]+ dur_ms=[0-9.]+ deadline_ms=0 outcome=ok$' "$work/makespand.log"
# The E9 rejects logged outcome=error, and nothing ever logged a panic.
grep -Eq '^event=request method=POST route=/v1/estimate status=(400|404) bytes=[0-9]+ dur_ms=[0-9.]+ deadline_ms=0 outcome=error$' "$work/makespand.log"
! grep -q 'outcome=panic' "$work/makespand.log"

echo "== E18 pfail 1e-4 estimate: parity, nonzero interval, mean >= failure-free"
req18='{"kind":"lu","k":8,"pfail":0.0001,"methods":"First Order","trials":20000,"seed":7}'
curl -fsS -X POST "$base/v1/estimate" -d "$req18" | normalize >"$work/svc_e18.json"
"$bin/makespan" -kind lu -k 8 -pfail 0.0001 -methods "First Order" -trials 20000 -seed 7 \
    -format json | normalize >"$work/cli_e18.json"
diff -u "$work/cli_e18.json" "$work/svc_e18.json"
jq -e '.monte_carlo.ci95 > 0 and .monte_carlo.mean >= .failure_free_makespan' "$work/svc_e18.json" >/dev/null

echo "e2e smoke: all cases passed"
