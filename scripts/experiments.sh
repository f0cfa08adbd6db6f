#!/usr/bin/env bash
# Experiment-grid runner: sweeps server-side knobs (which need a server
# restart per cell) crossed with a client-side pnnload grid (which does
# not). Each (server config × load cell) lands one BENCH_macro row in
# the output directory plus a combined CSV and a summary table, ready
# for cmd/benchdiff or a spreadsheet.
#
#   ./scripts/experiments.sh                 # default sweep, ~1 min
#   EXP_OUT=results EXP_DURATION=10s ./scripts/experiments.sh
#
# Server-side axis swept here: the result cache, on or off — the knob
# that dominates tail latency under skewed load. Client-side axes live
# in the grid spec below (QPS × point-skew); edit or extend either list
# freely.
set -euo pipefail

cd "$(dirname "$0")/.."
out="${EXP_OUT:-$(mktemp -d)/experiments}"
duration="${EXP_DURATION:-3s}"
seed="${EXP_SEED:-42}"
port="${EXP_PORT:-18095}"
mkdir -p "$out"
workdir="$(mktemp -d)"
server_pid=""
trap '[ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null || true; rm -rf "$workdir"' EXIT

echo "== building"
go build -o "$workdir" ./cmd/pnngen ./cmd/pnnserve ./cmd/pnnload

echo "== generating dataset"
"$workdir/pnngen" -kind disks -n 60 -seed 7 > "$workdir/demo.json"

wait_healthy() {
  for _ in $(seq 1 50); do
    if curl -fsS -o /dev/null "http://127.0.0.1:$port/healthz" 2>/dev/null; then return 0; fi
    if ! kill -0 "$server_pid" 2>/dev/null; then
      echo "FAIL: pnnserve exited before becoming healthy" >&2; exit 1
    fi
    sleep 0.1
  done
  echo "FAIL: pnnserve never became healthy" >&2; exit 1
}

# The client-side grid every server config runs: QPS × point skew.
# Repeats > 1 would give per-cell variance at the cost of wall time;
# the smoke default keeps one repeat.
grid="$workdir/grid.json"
cat > "$grid" <<EOF
{
  "name": "exp",
  "seed": $seed,
  "repeats": ${EXP_REPEATS:-1},
  "base": {"duration": "$duration", "mix": "read=4,batch=1"},
  "sweep": {"qps": [100, 300], "point-theta": [0, 0.9]}
}
EOF

# Server-side sweep cells: result-cache entries (0 disables the cache).
server_cells=(0 4096)

csvs=()
for cache in "${server_cells[@]}"; do
  tag="cache${cache}"
  echo "== server config: cache=$cache"
  "$workdir/pnnserve" \
    -addr "127.0.0.1:$port" \
    -data "demo=$workdir/demo.json" \
    -cache "$cache" -log-level off &
  server_pid=$!
  wait_healthy

  # Name cells per server config so rows from different configs never
  # collide in $out.
  sed "s/\"name\": \"exp\"/\"name\": \"exp-$tag\"/" "$grid" > "$workdir/grid-$tag.json"
  "$workdir/pnnload" \
    -target "http://127.0.0.1:$port" \
    -grid "$workdir/grid-$tag.json" \
    -out "$out" -csv "$out/$tag.csv" \
    -fail-on-nonretryable
  csvs+=("$out/$tag.csv")

  kill "$server_pid" 2>/dev/null || true
  wait "$server_pid" 2>/dev/null || true
  server_pid=""
done

echo "== combined results"
combined="$out/experiments.csv"
head -n 1 "${csvs[0]}" > "$combined"
for c in "${csvs[@]}"; do tail -n +2 "$c" >> "$combined"; done
column -t -s, "$combined" || cat "$combined"
echo
echo "rows: $out/BENCH_*.json  csv: $combined"
