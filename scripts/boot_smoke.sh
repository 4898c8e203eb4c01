#!/usr/bin/env bash
# Boot and CLI smoke test for the two binaries that own a data dir.
#
#   - A cold `covidkg-server -pubs 30 -data DIR` boot builds the
#     knowledge graph and commits exactly one checkpoint generation.
#   - After SIGTERM, a warm boot reads the search index from the
#     checkpoint instead of re-indexing, restores the graph instead of
#     building it, and serves byte-identical GET /api/v1/kg and
#     /api/v1/search?q=vaccine bodies.
#   - `kgctl stats` and `kgctl kg` read the server's checkpoint and agree
#     with it: 33 publications, the same graph size.
#   - `kgctl gen -n 30` builds through the same System.Build as the cold
#     boot (both default to seed 42): its first generation equals the
#     cold boot's file for file, byte for byte, and `stats`, `search`
#     and `kg` run on it.
#   - A networked cold boot, `covidkg-server -shard-addrs … -pubs 30
#     -data DIR2` over four `covidkg-shard` processes, writes the same
#     g000001-knowledge_graph.json as `kgctl gen -n 30`, byte for byte:
#     the build does not depend on where the publications live.
#
# Usage: bash scripts/boot_smoke.sh [port]   (default port 18123; the
# shard processes listen on the four ports after it)
set -euo pipefail

port=${1:-18123}
work=$(mktemp -d)
pid=
shard_pids=()
trap '[ -n "$pid" ] && kill "$pid" 2>/dev/null; for p in "${shard_pids[@]}"; do kill "$p" 2>/dev/null; done; rm -rf "$work"' EXIT

go build -o "$work/covidkg-server" ./cmd/covidkg-server
go build -o "$work/kgctl" ./cmd/kgctl
go build -o "$work/covidkg-shard" ./cmd/covidkg-shard
data=$work/data
base=http://127.0.0.1:$port

fail() {
	echo "FAIL: $*" >&2
	exit 1
}

# boot LOG [FLAG...] starts the server on $data with -pubs 30 and any
# further flags, and waits until /readyz answers.
boot() {
	local log=$1
	shift
	"$work/covidkg-server" -addr "127.0.0.1:$port" -pubs 30 -data "$data" "$@" >"$log" 2>&1 &
	pid=$!
	for _ in $(seq 1 600); do
		curl -sf "$base/readyz" >/dev/null && return 0
		kill -0 "$pid" 2>/dev/null || { cat "$log" >&2; fail "server exited during boot"; }
		sleep 0.1
	done
	cat "$log" >&2
	fail "server not ready after 60 s"
}

# stop sends SIGTERM and waits for the final checkpoint.
stop() {
	kill -TERM "$pid"
	wait "$pid" || fail "server exited non-zero on SIGTERM"
	pid=
}

# cold boot: one generation, graph built
boot "$work/cold.log"
manifests=$(ls "$data" | grep -c '^MANIFEST-' || true)
[ "$manifests" -eq 1 ] || fail "cold boot left $manifests MANIFEST files, want 1"
grep -q 'kg built in' "$work/cold.log" || fail "cold boot did not build the graph"
mkdir "$work/cold-gen"
cp "$data"/g000001-* "$work/cold-gen/"
curl -sf "$base/api/v1/kg" >"$work/cold.json"
curl -sf "$base/api/v1/search?q=vaccine" >"$work/cold-search.json"
stop
grep -q 'final checkpoint committed' "$work/cold.log" || fail "no final checkpoint on SIGTERM"

# warm boot: index read and graph restored, not rebuilt, same bodies
boot "$work/warm.log"
grep -q 'search index read from checkpoint' "$work/warm.log" || fail "warm boot did not read the index: $(grep 'search index' "$work/warm.log")"
grep -q 'knowledge graph restored from checkpoint' "$work/warm.log" || fail "warm boot did not restore the graph"
! grep -q 'building knowledge graph' "$work/warm.log" || fail "warm boot rebuilt the graph"
curl -sf "$base/api/v1/kg" >"$work/warm.json"
curl -sf "$base/api/v1/search?q=vaccine" >"$work/warm-search.json"
stop
cmp -s "$work/cold.json" "$work/warm.json" || fail "warm /api/v1/kg body differs from the cold one"
cmp -s "$work/cold-search.json" "$work/warm-search.json" || fail "warm /api/v1/search?q=vaccine body differs from the cold one"

# kgctl agrees with the server's checkpoint. Outputs are captured first:
# grep -q closing the pipe early would fail the pipeline under pipefail.
nodes=$(sed -n 's/.*knowledge graph restored from checkpoint: \([0-9]*\) nodes.*/\1/p' "$work/warm.log")
out=$("$work/kgctl" stats -data "$data")
grep -qx 'documents:   33' <<<"$out" || fail "kgctl stats on the server's checkpoint: $out"
out=$("$work/kgctl" kg -data "$data")
grep -qx "knowledge graph: $nodes nodes" <<<"$out" || fail "kgctl kg disagrees with the server's $nodes nodes: $out"

# kgctl gen -n 30 writes the cold boot's first generation byte for byte
cli=$work/cli
"$work/kgctl" gen -n 30 -out "$cli" 2>/dev/null
[ "$(ls "$work/cold-gen")" = "$(cd "$cli" && ls g000001-*)" ] ||
	fail "kgctl gen wrote $(cd "$cli" && ls g000001-* | tr '\n' ' '), the cold boot $(ls "$work/cold-gen" | tr '\n' ' ')"
for f in "$work"/cold-gen/*; do
	cmp -s "$f" "$cli/${f##*/}" || fail "kgctl gen -n 30 and the cold boot wrote different ${f##*/}"
done
out=$("$work/kgctl" stats -data "$cli")
grep -qx 'documents:   33' <<<"$out" || fail "kgctl stats after gen -n 30 (+3 side-effect papers): $out"
out=$("$work/kgctl" search -data "$cli" -q vaccine)
grep -q 'results (page 1/' <<<"$out" || fail "kgctl search: $out"
out=$("$work/kgctl" kg -data "$cli" -q vaccines)
grep -q '^knowledge graph: [0-9]* nodes' <<<"$out" || fail "kgctl kg: $out"

# a networked cold boot over four shard processes builds kgctl gen's graph
addrs=
for i in 1 2 3 4; do
	"$work/covidkg-shard" -addr "127.0.0.1:$((port + i))" -name "shard$i" -wal "$work/shard$i.wal" >"$work/shard$i.log" 2>&1 &
	shard_pids+=($!)
	addrs+=${addrs:+,}127.0.0.1:$((port + i))
done
data=$work/data2
boot "$work/net.log" -shard-addrs "$addrs"
grep -q 'publications served by 4 remote shard processes' "$work/net.log" || fail "networked boot did not use the shard tier"
grep -q 'kg built in' "$work/net.log" || fail "networked cold boot did not build the graph"
stop
cmp -s "$data/g000001-knowledge_graph.json" "$cli/g000001-knowledge_graph.json" ||
	fail "the networked cold boot and kgctl gen -n 30 wrote different g000001-knowledge_graph.json"

echo "boot smoke ok: index read on the warm boot, cold and warm /api/v1/kg ($nodes nodes) and search identical, kgctl agrees, kgctl gen wrote the cold boot's generation and the networked boot's graph"
