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
#
# Usage: bash scripts/boot_smoke.sh [port]   (default port 18123)
set -euo pipefail

port=${1:-18123}
work=$(mktemp -d)
pid=
trap '[ -n "$pid" ] && kill "$pid" 2>/dev/null; rm -rf "$work"' EXIT

go build -o "$work/covidkg-server" ./cmd/covidkg-server
go build -o "$work/kgctl" ./cmd/kgctl
data=$work/data
base=http://127.0.0.1:$port

fail() {
	echo "FAIL: $*" >&2
	exit 1
}

# boot LOG starts the server on $data and waits until /readyz answers.
boot() {
	"$work/covidkg-server" -addr "127.0.0.1:$port" -pubs 30 -data "$data" >"$1" 2>&1 &
	pid=$!
	for _ in $(seq 1 600); do
		curl -sf "$base/readyz" >/dev/null && return 0
		kill -0 "$pid" 2>/dev/null || { cat "$1" >&2; fail "server exited during boot"; }
		sleep 0.1
	done
	cat "$1" >&2
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

echo "boot smoke ok: index read on the warm boot, cold and warm /api/v1/kg ($nodes nodes) and search identical, kgctl agrees, kgctl gen wrote the cold boot's generation"
