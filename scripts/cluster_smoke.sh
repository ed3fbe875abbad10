#!/usr/bin/env bash
# Cluster smoke: boot 2 durable shards + 1 router, register the same
# dataset both unpartitioned ("solo") and hash-partitioned across the
# shards ("parts"), and require the scatter-gather count to equal the
# single-home count — including after an identical mutation batch is
# applied to both copies (delta-sync replay agreement). Then drive
# mixed bfload traffic through the router and kill -9 one shard
# mid-run: the unchanged partitioned graph must keep answering exactly
# from the router's merged pin (X-Cache: merged), while a forced
# scatter (?debug=true) must degrade honestly (200 + "degraded":true,
# never a silently wrong exact answer). Finally restart the shard over
# the same -data-dir (WAL replay) and require every count to come back
# exact and identical to the pre-crash baseline — zero wrong counts
# across the whole episode.
#
# Used by `make cluster-smoke` and the CI cluster-smoke job. Needs
# only curl + standard shell tools.
set -euo pipefail

ROUTER="${ROUTER:-127.0.0.1:18090}"
SHARD1="${SHARD1:-127.0.0.1:18091}"
SHARD2="${SHARD2:-127.0.0.1:18092}"
DIR1="$(mktemp -d)"
DIR2="$(mktemp -d)"
BIN="${BFSERVED:-./bfserved}"
LOAD="${BFLOAD:-./bfload}"

cleanup() {
  for pid in "${S1:-0}" "${S2:-0}" "${RT:-0}"; do
    [ "$pid" -gt 0 ] && kill -9 "$pid" 2>/dev/null || true
  done
  rm -rf "$DIR1" "$DIR2"
}
trap cleanup EXIT

if [ ! -x "$BIN" ]; then
  go build -o bfserved ./cmd/bfserved
  BIN=./bfserved
fi
if [ ! -x "$LOAD" ]; then
  go build -o bfload ./cmd/bfload
  LOAD=./bfload
fi

wait_ready() { # wait_ready <addr>
  for _ in $(seq 1 100); do
    curl -sf "http://$1/healthz" >/dev/null && return 0
    sleep 0.2
  done
  echo "daemon at $1 never became ready" >&2
  return 1
}

field() { # field <json> <name> — jq when available, sed fallback
  if command -v jq >/dev/null 2>&1; then
    printf '%s' "$1" | jq -r ".$2"
  else
    printf '%s' "$1" | sed -E "s/.*\"$2\":([0-9]+).*/\1/"
  fi
}

echo "== boot 2 shards (durable) + router"
"$BIN" -addr "$SHARD1" -role shard -data-dir "$DIR1" -fsync always &
S1=$!
"$BIN" -addr "$SHARD2" -role shard -data-dir "$DIR2" -fsync always &
S2=$!
wait_ready "$SHARD1"
wait_ready "$SHARD2"
"$BIN" -addr "$ROUTER" -role router -shards "http://$SHARD1,http://$SHARD2" &
RT=$!
wait_ready "$ROUTER"
curl -sf "http://$ROUTER/healthz" | grep -q '"role":"router"'

echo "== register solo (one shard) and parts (partitioned across both)"
curl -sf -X POST "http://$ROUTER/v1/graphs" \
  -d '{"name":"solo","dataset":"occupations","scale":40}' >/dev/null
curl -sf -X POST "http://$ROUTER/v1/graphs" \
  -d '{"name":"parts","dataset":"occupations","scale":40,"partitions":2}' >/dev/null
# Both shards must actually hold data now (parts spreads over both).
curl -sf "http://$SHARD1/healthz" | grep -vq '"graphs":0'
curl -sf "http://$SHARD2/healthz" | grep -vq '"graphs":0'

SOLO0=$(curl -sf -X POST "http://$ROUTER/v1/graphs/solo/count" -d '{}')
PARTS0=$(curl -sf -X POST "http://$ROUTER/v1/graphs/parts/count" -d '{}')
echo "   solo:  $SOLO0"
echo "   parts: $PARTS0"
if [ "$(field "$SOLO0" butterflies)" != "$(field "$PARTS0" butterflies)" ]; then
  echo "FAIL: scatter-gather count differs from single-home count" >&2
  exit 1
fi

echo "== mutate both copies identically, counts must track the replay"
MUTATION='{"inserts":[[0,0],[0,1],[1,0],[1,1],[2,2],[3,3]],"deletes":[[0,2],[4,4]]}'
MSOLO=$(curl -sf -X POST "http://$ROUTER/v1/graphs/solo/mutate" -d "$MUTATION")
MPARTS=$(curl -sf -X POST "http://$ROUTER/v1/graphs/parts/mutate" -d "$MUTATION")
echo "   solo:  $MSOLO"
echo "   parts: $MPARTS"
SOLO0=$(curl -sf -X POST "http://$ROUTER/v1/graphs/solo/count" -d '{}')
PARTS0=$(curl -sf -X POST "http://$ROUTER/v1/graphs/parts/count" -d '{}')
if [ "$(field "$SOLO0" butterflies)" != "$(field "$PARTS0" butterflies)" ]; then
  echo "FAIL: post-mutation scatter-gather count differs from single-node replay:" >&2
  echo "  solo=$SOLO0 parts=$PARTS0" >&2
  exit 1
fi
# The same mutation batch must also report the same resulting count in
# the mutate response itself.
if [ "$(field "$MSOLO" count)" != "$(field "$MPARTS" count)" ]; then
  echo "FAIL: mutate responses disagree: solo=$MSOLO parts=$MPARTS" >&2
  exit 1
fi

echo "== mixed load through the router (all shards up, no 5xx allowed)"
"$LOAD" -addr "$ROUTER" -graph solo -no-register -n 400 -c 8 \
  -mix count=3,estimate=1

echo "== kill -9 shard 2 mid-run"
"$LOAD" -addr "$ROUTER" -graph solo -no-register -n 400 -c 4 \
  -mix count=3,estimate=1 -allow-5xx &
LOADPID=$!
sleep 1
kill -9 "$S2"
wait "$S2" 2>/dev/null || true
wait "$LOADPID"

# The partitioned graph lost a shard, but it is unchanged since the
# last gather: the version-pinned merged count keeps answering exactly
# without touching a shard (X-Cache: merged).
PIN=$(curl -sf -i -X POST "http://$ROUTER/v1/graphs/parts/count" -d '{}')
echo "   pinned: $(printf '%s' "$PIN" | tail -1)"
printf '%s' "$PIN" | grep -qi '^x-cache: merged' || {
  echo "FAIL: count with a dead shard not served from the merged pin: $PIN" >&2
  exit 1
}
if [ "$(field "$(printf '%s' "$PIN" | tail -1)" butterflies)" != "$(field "$PARTS0" butterflies)" ]; then
  echo "FAIL: pinned count diverged from the pre-crash answer: $PIN" >&2
  exit 1
fi
# A real scatter (?debug=true bypasses the pin) must answer 200 with
# an explicitly degraded estimate, not a silently wrong exact count.
DEG=$(curl -sf -X POST "http://$ROUTER/v1/graphs/parts/count?debug=true" -d '{}')
echo "   degraded: $DEG"
echo "$DEG" | grep -q '"degraded":true' || {
  echo "FAIL: scatter with a dead shard not marked degraded: $DEG" >&2
  exit 1
}
echo "$DEG" | grep -q '"strategy":"partitions"' || {
  echo "FAIL: degraded answer missing partitions strategy: $DEG" >&2
  exit 1
}

echo "== restart shard 2 (WAL replay) and verify zero wrong counts"
"$BIN" -addr "$SHARD2" -role shard -data-dir "$DIR2" -fsync always &
S2=$!
wait_ready "$SHARD2"

SOLO1=$(curl -sf -X POST "http://$ROUTER/v1/graphs/solo/count" -d '{}')
PARTS1=$(curl -sf -X POST "http://$ROUTER/v1/graphs/parts/count" -d '{}')
echo "   solo:  $SOLO1"
echo "   parts: $PARTS1"
fail=0
if echo "$PARTS1" | grep -q '"degraded":true'; then
  echo "FAIL: parts still degraded after shard restart" >&2
  fail=1
fi
if [ "$(field "$SOLO1" butterflies)" != "$(field "$SOLO0" butterflies)" ]; then
  echo "FAIL: solo count changed across the crash: $(field "$SOLO0" butterflies) -> $(field "$SOLO1" butterflies)" >&2
  fail=1
fi
if [ "$(field "$PARTS1" butterflies)" != "$(field "$PARTS0" butterflies)" ]; then
  echo "FAIL: parts count changed across the crash: $(field "$PARTS0" butterflies) -> $(field "$PARTS1" butterflies)" >&2
  fail=1
fi

kill -TERM "$RT" "$S1" "$S2"
wait "$RT" "$S1" "$S2"
RT=0 S1=0 S2=0

if [ "$fail" -ne 0 ]; then exit 1; fi
echo "OK: cluster survives kill -9 with zero wrong counts"
