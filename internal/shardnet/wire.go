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
//   - a dark shard degrades into the Partial/MissingShards path: the
//     coordinator folds an exhausted transport failure into a
//     *docstore.ShardError wrapping ErrShardUnavailable.
//
// Placement is consistent-hash over logical shard names, and the shard
// map is fixed when the coordinator dials: a shard keeps its name and
// its address for the coordinator's lifetime. Changing the shard count
// means re-ingesting or restoring the corpus.
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
// cannot make the receiver allocate unboundedly. Full scans page
// through get_many, so no frame carries a whole shard's documents; the
// largest are a shard's id listing and one batch's documents.
const maxFrame = 256 << 20

// Operation codes carried in request frames. An op name is permanent
// once shipped and a retired one is never reused; a server answers a
// retired op bad_request like any unknown one. Retired: "snapshot" (a
// whole shard in one frame; full scans page through get_many).
const (
	opPing    = "ping"
	opGet     = "get"
	opInsert  = "insert"
	opDelete  = "delete"
	opIDs     = "ids"
	opCount   = "count"
	opGetMany = "get_many"
	opHealth  = "health"
)

// request is one framed request envelope. Shard carries the
// coordinator's logical shard index so server-side failures can be
// attributed to the right partition when they travel back;
// DeadlineUnixMicro propagates the caller's context deadline into the
// server's handler context.
type request struct {
	Op                string
	Shard             int
	DeadlineUnixMicro int64
	IdemKey           string
	ID                string
	IDs               []string
	Doc               jsondoc.Doc
}

// response is one framed response envelope. ErrCode is one of the wire
// error codes below ("" means success); the other fields are the
// op-specific payload.
type response struct {
	ErrCode string
	ErrMsg  string

	ID  string
	IDs []string
	// A receiver decodes the document fields into Doc and Docs; a shard
	// server sends them from EncDoc and EncDocs, encodings straight from
	// its store (or from Doc's tree when EncDoc is nil).
	Doc      jsondoc.Doc
	Docs     []jsondoc.Doc
	EncDoc   []byte
	EncDocs  [][]byte
	N        int
	WALBytes int64
}

// Wire error codes. Each maps to exactly one sentinel so the client can
// rebuild the error chain the shard's store produced.
const (
	codeNotFound   = "not_found"
	codeDuplicate  = "duplicate"
	codeDeadline   = "deadline_exceeded"
	codeCancelled  = "cancelled"
	codeBadRequest = "bad_request"
	codeInternal   = "internal"
)

// errBadRequest marks malformed requests (unknown op, missing id); a
// document the store refuses (jsondoc.ErrInvalid) travels as one too.
var errBadRequest = errors.New("shardnet: bad request")

// encodeWireErr classifies a server-side error into its wire code.
// Classification is by errors.Is over the docstore sentinels, so
// however many layers the store wrapped, the client can rebuild an
// equivalent chain.
func encodeWireErr(err error) (code, msg string) {
	switch {
	case err == nil:
		return "", ""
	case errors.Is(err, docstore.ErrNotFound):
		code = codeNotFound
	case errors.Is(err, docstore.ErrDuplicateID):
		code = codeDuplicate
	case errors.Is(err, errDeadline):
		code = codeDeadline
	case errors.Is(err, errCancelled):
		code = codeCancelled
	case errors.Is(err, errBadRequest), errors.Is(err, jsondoc.ErrInvalid):
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
// upper layers already know how to handle: errors.Is matches the same
// docstore sentinel the shard's store returned. A code this client does
// not know decodes to a plain error naming it.
func decodeWireErr(code, msg string) error {
	var sentinel error
	switch code {
	case "":
		return nil
	case codeNotFound:
		sentinel = docstore.ErrNotFound
	case codeDuplicate:
		sentinel = docstore.ErrDuplicateID
	case codeBadRequest:
		sentinel = errBadRequest
	default:
		return fmt.Errorf("shardnet: remote %s: %s", code, msg)
	}
	return fmt.Errorf("%w: remote: %s", sentinel, msg)
}
