// Package shardnet is the networked shard tier: it moves each shard out
// of the serving process and into its own covidkg-shard server, with a
// coordinator that scatter-gathers search/fetch/ingest over N shard
// connections. The shard stays the failure domain, with these
// guarantees on the wire:
//
//   - per-connection circuit breakers (internal/breaker) take a dead or
//     flapping shard process out of rotation and rediscover it with a
//     single half-open probe;
//   - reads are hedged with an adaptive 2×p95 budget, so a
//     slow-but-alive shard costs one budget, not its full stall;
//   - request deadlines propagate from the caller's context into the
//     transport frame, so a shard server stops working on requests
//     whose client is already gone;
//   - writes retry with idempotency keys (internal/retry), so a retry
//     racing a crash can never double-apply;
//   - a dark shard degrades into the existing Partial/MissingShards
//     path: wire errors are reconstructed into the same *ShardError /
//     ErrShardUnavailable chain the in-process store produces.
//
// Placement is consistent-hash over a versioned shard map, with live
// migration: a shard streams to a new process, the map version cuts
// over, and the old owner drains.
//
// The wire contract is one codec, b1 (codec.go): every frame in either
// direction, from a connection's first byte, is a 4-byte big-endian
// length prefix followed by a payload of version byte, kind byte,
// correlation id and tagged fields. Many requests are pipelined per
// connection and demultiplexed by correlation id (mux.go). The version
// byte of each frame is the only version gate: a receiver that does not
// recognise it closes the connection without decoding further.
package shardnet

import (
	"errors"
	"fmt"

	"covidkg/internal/docstore"
	"covidkg/internal/jsondoc"
)

// maxFrame bounds one frame's payload so a corrupt or hostile peer
// cannot make the receiver allocate unboundedly. Shard snapshots are
// the largest frames; 256 MiB clears any corpus this repo benches.
const maxFrame = 256 << 20

// Operation codes carried in request frames.
const (
	opPing       = "ping"
	opGet        = "get"
	opInsert     = "insert"
	opDelete     = "delete"
	opIDs        = "ids"
	opSnapshot   = "snapshot"
	opCount      = "count"
	opCRC        = "crc"
	opManifest   = "manifest"
	opGetMany    = "get_many"
	opPutBulk    = "put_bulk"
	opDeleteMany = "delete_many"
	opHealth     = "health"
	opCutover    = "cutover"
)

// request is one framed request envelope. Shard carries the
// coordinator's logical shard index so server-side failures can be
// attributed to the right partition when they travel back; MapVersion
// is the coordinator's shard-map version, letting a drained owner
// reject writes routed with a stale map; DeadlineUnixMicro propagates
// the caller's context deadline into the server's handler context.
type request struct {
	Op                string
	Shard             int
	MapVersion        uint64
	DeadlineUnixMicro int64
	IdemKey           string
	ID                string
	IDs               []string
	Doc               jsondoc.Doc
	Docs              []jsondoc.Doc
	Version           uint64
}

// response is one framed response envelope. ErrCode is one of the wire
// error codes below ("" means success); the other fields are the
// op-specific payload.
type response struct {
	ErrCode string
	ErrMsg  string

	ID       string
	IDs      []string
	Doc      jsondoc.Doc
	Docs     []jsondoc.Doc
	N        int
	CRC      uint32
	Manifest map[string]uint32
	WALBytes int64
}

// Wire error codes. Each maps to exactly one sentinel so the client can
// rebuild the error chain the in-process store would have produced.
const (
	codeNotFound    = "not_found"
	codeDuplicate   = "duplicate"
	codeNoQuorum    = "no_quorum"
	codeUnavailable = "shard_unavailable"
	codeStaleMap    = "stale_map"
	codeDeadline    = "deadline_exceeded"
	codeCancelled   = "cancelled"
	codeBadRequest  = "bad_request"
	codeInternal    = "internal"
)

// ErrStaleMap reports a write rejected by a shard server because the
// request carried a shard-map version older than the server's cutover
// version — the coordinator must refresh its map and re-route.
var ErrStaleMap = errors.New("shardnet: shard map version is stale")

// errBadRequest marks malformed requests (unknown op, missing id).
var errBadRequest = errors.New("shardnet: bad request")

// encodeWireErr classifies a server-side error into its wire code.
// Classification is by errors.Is over the docstore sentinels, so
// however many layers the store wrapped (ShardError, quorum detail),
// the client can rebuild an equivalent chain.
func encodeWireErr(err error) (code, msg string) {
	switch {
	case err == nil:
		return "", ""
	case errors.Is(err, docstore.ErrNotFound):
		code = codeNotFound
	case errors.Is(err, docstore.ErrDuplicateID):
		code = codeDuplicate
	case errors.Is(err, docstore.ErrNoQuorum):
		code = codeNoQuorum
	case errors.Is(err, docstore.ErrShardUnavailable):
		code = codeUnavailable
	case errors.Is(err, ErrStaleMap):
		code = codeStaleMap
	case errors.Is(err, errDeadline):
		code = codeDeadline
	case errors.Is(err, errCancelled):
		code = codeCancelled
	case errors.Is(err, errBadRequest):
		code = codeBadRequest
	default:
		code = codeInternal
	}
	return code, err.Error()
}

var (
	errDeadline  = errors.New("shardnet: deadline exceeded")
	errCancelled = errors.New("shardnet: request cancelled")
)

// decodeWireErr rebuilds a server-reported failure into the error chain
// upper layers already know how to handle: shard-level failures become
// a *docstore.ShardError carrying the coordinator's logical shard index
// and wrapping the matching sentinel, so errors.Is /
// docstore.ShardOfError / docstore.UnavailableShard all keep working
// across the transport boundary — a remote dark shard maps onto
// Page.MissingShards exactly like a local one.
func decodeWireErr(shard int, code, msg string) error {
	if code == "" {
		return nil
	}
	var sentinel error
	switch code {
	case codeNotFound:
		sentinel = docstore.ErrNotFound
	case codeDuplicate:
		sentinel = docstore.ErrDuplicateID
	case codeNoQuorum:
		sentinel = docstore.ErrNoQuorum
	case codeUnavailable:
		sentinel = docstore.ErrShardUnavailable
	case codeStaleMap:
		sentinel = ErrStaleMap
	case codeBadRequest:
		sentinel = errBadRequest
	default:
		return fmt.Errorf("shardnet: remote %s: %s", code, msg)
	}
	err := fmt.Errorf("%w: remote: %s", sentinel, msg)
	switch code {
	case codeNoQuorum, codeUnavailable:
		return &docstore.ShardError{Shard: shard, Err: err}
	}
	return err
}
