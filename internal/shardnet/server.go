package shardnet

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"covidkg/internal/docstore"
	"covidkg/internal/jsondoc"
	"covidkg/internal/metrics"
)

// ServerConfig configures one covidkg-shard server process.
type ServerConfig struct {
	// Name is the logical shard name ("shard2"), used in logs and the
	// health payload.
	Name string
	// Collection is the collection this shard serves a partition of.
	Collection string
	// WALPath, when non-empty, makes acked writes crash-durable: applied
	// writes append to a checksummed, fsynced log that is replayed on
	// restart (with torn-tail truncation). Empty disables durability
	// (unit tests).
	WALPath string
	// Metrics receives server-side counters; nil allocates a private
	// registry.
	Metrics *metrics.Registry
	// Logf sinks server logs; nil means log.Printf.
	Logf func(format string, args ...any)
}

// idemOutcome is the recorded result of a keyed write, returned
// verbatim when the same idempotency key is seen again.
type idemOutcome struct {
	id      string
	errCode string
	errMsg  string
}

// Server hosts one shard: a single-shard store behind the
// length-prefixed wire protocol. It enforces deadline propagation
// (requests whose propagated deadline already passed are refused
// without touching the store), idempotent writes (a retried IdemKey
// replays the recorded outcome instead of re-applying), and shard-map
// fencing (after a cutover op, writes carrying an older map version are
// rejected with stale_map so a drained owner cannot accept strays).
type Server struct {
	cfg  ServerConfig
	coll *docstore.Collection
	wal  *wal
	met  *metrics.Registry
	logf func(string, ...any)

	// minMapVersion fences writes after migration cutover: a request
	// whose MapVersion is non-zero and below this is stale-routed.
	minMapVersion atomic.Uint64

	idemMu   sync.Mutex
	idem     map[string]idemOutcome
	idemFIFO []string

	connMu sync.Mutex
	conns  map[net.Conn]struct{}
	ln     net.Listener
	closed atomic.Bool
	wg     sync.WaitGroup
}

// idemCap bounds the dedup table; old keys are evicted FIFO. 64k keys
// comfortably outlives any client's retry horizon.
const idemCap = 1 << 16

// NewServer builds the shard server and, if a WAL path is configured,
// replays the log into the store so the shard resumes exactly at its
// last acked write.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Collection == "" {
		cfg.Collection = "publications"
	}
	met := cfg.Metrics
	if met == nil {
		met = metrics.NewRegistry()
	}
	logf := cfg.Logf
	if logf == nil {
		logf = log.Printf
	}
	s := &Server{
		cfg:   cfg,
		met:   met,
		logf:  logf,
		idem:  make(map[string]idemOutcome),
		conns: make(map[net.Conn]struct{}),
	}
	s.coll = docstore.Open(docstore.WithShards(1), docstore.WithMetrics(met)).Collection(cfg.Collection)
	if cfg.WALPath != "" {
		replayed := 0
		w, err := openWAL(cfg.WALPath, func(rec walRecord) {
			s.applyWALRecord(rec)
			replayed++
		})
		if err != nil {
			return nil, err
		}
		w.fsyncs = met.Counter("shardnet.server.wal_fsyncs")
		s.wal = w
		if replayed > 0 {
			logf("shardnet %s: replayed %d wal records, %d docs live", cfg.Name, replayed, s.coll.Count())
		}
	}
	return s, nil
}

// applyWALRecord re-applies one committed write during replay. Replay
// is idempotent by construction: duplicate inserts and missing deletes
// are ignored, and the idempotency table is rebuilt so clients retrying
// across the restart still deduplicate.
func (s *Server) applyWALRecord(rec walRecord) {
	switch rec.Op {
	case "insert":
		if _, err := s.coll.Insert(rec.Doc); err != nil && !errors.Is(err, docstore.ErrDuplicateID) {
			s.logf("shardnet %s: wal replay insert %s: %v", s.cfg.Name, rec.ID, err)
		}
	case "delete":
		if err := s.coll.Delete(rec.ID); err != nil && !errors.Is(err, docstore.ErrNotFound) {
			s.logf("shardnet %s: wal replay delete %s: %v", s.cfg.Name, rec.ID, err)
		}
	case "put":
		if err := s.upsert(rec.Doc); err != nil {
			s.logf("shardnet %s: wal replay put %s: %v", s.cfg.Name, rec.ID, err)
		}
	}
	if rec.Idem != "" {
		s.recordIdem(rec.Idem, idemOutcome{id: rec.ID})
	}
}

// upsert replaces the document if present, inserts it otherwise.
func (s *Server) upsert(d jsondoc.Doc) error {
	id, _ := d[docstore.IDField].(string)
	if id == "" {
		_, err := s.coll.Insert(d)
		return err
	}
	err := s.coll.Replace(id, d)
	if errors.Is(err, docstore.ErrNotFound) {
		_, err = s.coll.Insert(d)
	}
	return err
}

// Serve accepts connections on ln until Close and runs handleConn on
// each.
func (s *Server) Serve(ln net.Listener) error {
	s.connMu.Lock()
	s.ln = ln
	s.connMu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.closed.Load() {
				return nil
			}
			return err
		}
		s.connMu.Lock()
		s.conns[conn] = struct{}{}
		s.connMu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handleConn(conn)
		}()
	}
}

// Start listens on addr (use "127.0.0.1:0" for an ephemeral port) and
// serves in a background goroutine, returning the bound address.
func (s *Server) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go func() {
		if err := s.Serve(ln); err != nil {
			s.logf("shardnet %s: serve: %v", s.cfg.Name, err)
		}
	}()
	return ln.Addr(), nil
}

// Close stops accepting, closes every live connection and the WAL.
func (s *Server) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	s.connMu.Lock()
	if s.ln != nil {
		s.ln.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.connMu.Unlock()
	s.wg.Wait()
	if s.wal != nil {
		return s.wal.close()
	}
	return nil
}

// Collection exposes the underlying collection for tests and the audit
// path (the chaos bench inspects a restarted shard directly).
func (s *Server) Collection() *docstore.Collection { return s.coll }

// binaryConnConcurrency bounds how many requests one multiplexed
// connection may have in dispatch at once — backpressure so a client
// pipelining faster than the store drains cannot queue goroutines
// unboundedly.
const binaryConnConcurrency = 64

// handleConn runs one connection: a reader decodes correlation-tagged
// request frames and dispatches each on its own goroutine (bounded by a
// semaphore), and a writer goroutine serializes completed responses
// back, batching queued frames per flush. Responses return in
// completion order — the correlation id, not arrival order, pairs them
// with requests.
func (s *Server) handleConn(conn net.Conn) {
	defer func() {
		s.connMu.Lock()
		delete(s.conns, conn)
		s.connMu.Unlock()
	}()
	respCh := make(chan *[]byte, 128)
	go s.binaryWriteLoop(conn, respCh)

	sem := make(chan struct{}, binaryConnConcurrency)
	var wg sync.WaitGroup
	var rbuf []byte
	br := bufio.NewReaderSize(conn, 64<<10)
	for {
		// An idle-read ceiling keeps leaked connections from pinning the
		// handler forever; clients reconnect transparently.
		conn.SetReadDeadline(time.Now().Add(5 * time.Minute))
		payload, err := readRawFrame(br, &rbuf)
		var corr uint64
		var req *request
		if err == nil {
			corr, req, err = decodeBinaryRequest(payload)
		}
		if err != nil {
			// A frame that is not b1 (unknown version byte, undecodable
			// payload) cannot be answered — a made-up correlation id would
			// mis-pair a caller — and the stream cannot be re-synchronized.
			// Drop the connection; a real client redials.
			if !errors.Is(err, io.EOF) && !s.closed.Load() {
				s.logf("shardnet %s: closing connection from %s: %v", s.cfg.Name, conn.RemoteAddr(), err)
			}
			break
		}
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			resp := s.dispatch(req)
			buf := getBuf()
			frame, err := appendResponseFrame((*buf)[:0], corr, resp)
			if err != nil {
				// Response encoding failures (a non-JSON value smuggled into
				// a doc) degrade to an internal error so the caller is not
				// left waiting for a frame that never comes.
				frame, err = appendResponseFrame((*buf)[:0], corr, errResponse(fmt.Errorf("shardnet: encode response: %w", err)))
				if err != nil {
					putBuf(buf)
					return
				}
			}
			*buf = frame
			respCh <- buf
		}()
	}
	conn.Close()
	wg.Wait()
	close(respCh)
}

// binaryWriteLoop drains respCh onto the socket, flushing once per
// batch of queued responses. On a write error it keeps draining (and
// recycling) buffers so in-flight handlers never block on a dead
// connection.
func (s *Server) binaryWriteLoop(conn net.Conn, respCh chan *[]byte) {
	bw := bufio.NewWriterSize(conn, 64<<10)
	for buf := range respCh {
		conn.SetWriteDeadline(time.Now().Add(30 * time.Second))
		if err := writeRespBatch(bw, respCh, buf); err != nil {
			conn.Close()
			for b := range respCh {
				putBuf(b)
			}
			return
		}
	}
}

func writeRespBatch(bw *bufio.Writer, respCh chan *[]byte, buf *[]byte) error {
	for {
		_, err := bw.Write(*buf)
		putBuf(buf)
		if err != nil {
			return err
		}
		select {
		case buf = <-respCh:
			if buf == nil {
				return bw.Flush()
			}
		default:
			return bw.Flush()
		}
	}
}

// requestContext materializes the propagated deadline. A deadline
// already in the past fails fast with deadline_exceeded before the
// store is touched — the client that set it has already given up.
func requestContext(req *request) (context.Context, context.CancelFunc, error) {
	if req.DeadlineUnixMicro == 0 {
		return context.Background(), func() {}, nil
	}
	dl := time.UnixMicro(req.DeadlineUnixMicro)
	if !time.Now().Before(dl) {
		return nil, nil, fmt.Errorf("%w: propagated deadline %s already passed", errDeadline, dl.Format(time.RFC3339Nano))
	}
	ctx, cancel := context.WithDeadline(context.Background(), dl)
	return ctx, cancel, nil
}

func errResponse(err error) *response {
	code, msg := encodeWireErr(err)
	return &response{ErrCode: code, ErrMsg: msg}
}

func (s *Server) dispatch(req *request) *response {
	s.met.Counter("shardnet.server.requests").Inc()
	ctx, cancel, err := requestContext(req)
	if err != nil {
		s.met.Counter("shardnet.server.deadline_rejected").Inc()
		return errResponse(err)
	}
	defer cancel()

	switch req.Op {
	case opPing:
		return &response{N: s.coll.Count()}
	case opGet:
		doc, err := s.coll.Get(req.ID)
		if err != nil {
			return errResponse(err)
		}
		return &response{Doc: doc}
	case opInsert:
		return s.handleInsert(req)
	case opDelete:
		return s.handleDelete(req)
	case opIDs:
		ids, err := s.coll.ShardIDsContext(ctx, 0)
		if err != nil {
			return errResponse(err)
		}
		return &response{IDs: ids, N: len(ids)}
	case opSnapshot:
		docs, err := s.coll.SnapshotShardContext(ctx, 0)
		if err != nil {
			return errResponse(err)
		}
		return &response{Docs: docs, N: len(docs)}
	case opCount:
		return &response{N: s.coll.Count()}
	case opCRC:
		return &response{CRC: s.coll.ShardCRC(0), N: s.coll.Count()}
	case opManifest:
		return s.handleManifest(ctx)
	case opGetMany:
		return s.handleGetMany(req)
	case opPutBulk:
		return s.handlePutBulk(req)
	case opDeleteMany:
		return s.handleDeleteMany(req)
	case opHealth:
		return s.handleHealth()
	case opCutover:
		// Fence: after this, writes routed with an older map version are
		// rejected. The coordinator calls this on the OLD owner at
		// migration cutover so in-flight stale-routed writes drain
		// instead of landing on a shard nobody reads anymore.
		old := s.minMapVersion.Load()
		for old < req.Version && !s.minMapVersion.CompareAndSwap(old, req.Version) {
			old = s.minMapVersion.Load()
		}
		s.logf("shardnet %s: cutover to map version %d (writes below are fenced)", s.cfg.Name, req.Version)
		return &response{N: int(s.minMapVersion.Load())}
	default:
		return errResponse(fmt.Errorf("%w: unknown op %q", errBadRequest, req.Op))
	}
}

// checkMapVersion applies the cutover fence to a write request.
func (s *Server) checkMapVersion(req *request) error {
	min := s.minMapVersion.Load()
	if req.MapVersion != 0 && req.MapVersion < min {
		return fmt.Errorf("%w: request map v%d < fence v%d", ErrStaleMap, req.MapVersion, min)
	}
	return nil
}

// lookupIdem returns the recorded outcome for a key, if any.
func (s *Server) lookupIdem(key string) (idemOutcome, bool) {
	if key == "" {
		return idemOutcome{}, false
	}
	s.idemMu.Lock()
	defer s.idemMu.Unlock()
	out, ok := s.idem[key]
	return out, ok
}

func (s *Server) recordIdem(key string, out idemOutcome) {
	if key == "" {
		return
	}
	s.idemMu.Lock()
	defer s.idemMu.Unlock()
	if _, dup := s.idem[key]; !dup {
		s.idemFIFO = append(s.idemFIFO, key)
		if len(s.idemFIFO) > idemCap {
			evict := s.idemFIFO[0]
			s.idemFIFO = s.idemFIFO[1:]
			delete(s.idem, evict)
		}
	}
	s.idem[key] = out
}

// handleInsert applies one write with exactly-once semantics:
//
//  1. replayed idempotency key → return the recorded outcome, no
//     re-apply;
//  2. apply to the shard's store;
//  3. WAL append of the applied document — the record joins a group
//     commit with whatever other writes are in flight and the call
//     returns once that group is fsynced;
//  4. record the idempotency outcome;
//  5. ack.
//
// Apply-before-WAL means a crash between 2 and 3 loses an UNACKED
// write (allowed — the client sees an indeterminate failure and
// retries with the same key); WAL-before-ack means an ACKED write is
// always replayed (no lost writes); and only applied writes are ever
// logged (no ghosts).
func (s *Server) handleInsert(req *request) *response {
	if out, ok := s.lookupIdem(req.IdemKey); ok {
		s.met.Counter("shardnet.server.idem_replays").Inc()
		return &response{ID: out.id, ErrCode: out.errCode, ErrMsg: out.errMsg}
	}
	if err := s.checkMapVersion(req); err != nil {
		return errResponse(err)
	}
	id, err := s.coll.Insert(req.Doc)
	if err != nil {
		// Duplicate-id rejections are deterministic: record them so a
		// retry does not flip outcomes. Dark-shard rejections are transient
		// and deliberately NOT recorded — a later retry may succeed.
		if errors.Is(err, docstore.ErrDuplicateID) {
			code, msg := encodeWireErr(err)
			s.recordIdem(req.IdemKey, idemOutcome{errCode: code, errMsg: msg})
		}
		return errResponse(err)
	}
	if s.wal != nil {
		stored, gerr := s.coll.Get(id)
		if gerr != nil {
			stored = req.Doc.Clone()
			stored[docstore.IDField] = id
		}
		if werr := s.wal.append(walRecord{Op: "insert", ID: id, Doc: stored, Idem: req.IdemKey}); werr != nil {
			// The write is applied in memory but not durable; refuse the
			// ack so the client treats it as failed rather than trusting
			// a write a crash could lose.
			return errResponse(fmt.Errorf("shardnet: wal append failed: %w", werr))
		}
	}
	s.recordIdem(req.IdemKey, idemOutcome{id: id})
	s.met.Counter("shardnet.server.inserts").Inc()
	return &response{ID: id}
}

func (s *Server) handleDelete(req *request) *response {
	if out, ok := s.lookupIdem(req.IdemKey); ok {
		s.met.Counter("shardnet.server.idem_replays").Inc()
		return &response{ID: out.id, ErrCode: out.errCode, ErrMsg: out.errMsg}
	}
	if err := s.checkMapVersion(req); err != nil {
		return errResponse(err)
	}
	if err := s.coll.Delete(req.ID); err != nil {
		if errors.Is(err, docstore.ErrNotFound) {
			code, msg := encodeWireErr(err)
			s.recordIdem(req.IdemKey, idemOutcome{errCode: code, errMsg: msg})
		}
		return errResponse(err)
	}
	if s.wal != nil {
		if werr := s.wal.append(walRecord{Op: "delete", ID: req.ID, Idem: req.IdemKey}); werr != nil {
			return errResponse(fmt.Errorf("shardnet: wal append failed: %w", werr))
		}
	}
	s.recordIdem(req.IdemKey, idemOutcome{id: req.ID})
	return &response{ID: req.ID}
}

// handleManifest returns id → CRC32(doc JSON) for every document — the
// delta-sync primitive: the migration coordinator diffs source and
// destination manifests to copy only changed documents during the
// paused window.
func (s *Server) handleManifest(ctx context.Context) *response {
	man := make(map[string]uint32)
	err := s.coll.ScanContext(ctx, func(d jsondoc.Doc) bool {
		id, _ := d[docstore.IDField].(string)
		man[id] = crc32.ChecksumIEEE(d.JSON())
		return true
	})
	if err != nil {
		return errResponse(err)
	}
	return &response{Manifest: man, N: len(man)}
}

func (s *Server) handleGetMany(req *request) *response {
	docs := make([]jsondoc.Doc, 0, len(req.IDs))
	for _, id := range req.IDs {
		d, err := s.coll.Get(id)
		if err != nil {
			if errors.Is(err, docstore.ErrNotFound) {
				continue // racing delete: the manifest diff will reconcile
			}
			return errResponse(err)
		}
		docs = append(docs, d)
	}
	return &response{Docs: docs, N: len(docs)}
}

// handlePutBulk upserts a batch (migration bulk copy / delta sync).
// Batches are WAL-logged like client writes: a migration destination
// that crashes mid-copy recovers what it acked and the coordinator's
// manifest diff fills the rest.
func (s *Server) handlePutBulk(req *request) *response {
	if err := s.checkMapVersion(req); err != nil {
		return errResponse(err)
	}
	// A failed upsert still logs the documents applied before it, as the
	// per-document loop this replaces did; the batch itself is not acked.
	var applied []walRecord
	var failed error
	for _, d := range req.Docs {
		if failed = s.upsert(d); failed != nil {
			break
		}
		id, _ := d[docstore.IDField].(string)
		applied = append(applied, walRecord{Op: "put", ID: id, Doc: d})
	}
	if err := s.logRun(applied, failed); err != nil {
		return errResponse(err)
	}
	return &response{N: len(req.Docs)}
}

// logRun commits what a multi-document request applied as a single WAL
// run — one write, one fsync, however many documents — and returns the
// request's outcome: the WAL failure, else the apply error (if any)
// that cut the request short.
func (s *Server) logRun(applied []walRecord, failed error) error {
	if s.wal != nil && len(applied) > 0 {
		if err := s.wal.append(applied...); err != nil {
			return fmt.Errorf("shardnet: wal append failed: %w", err)
		}
	}
	return failed
}

func (s *Server) handleDeleteMany(req *request) *response {
	var applied []walRecord
	var failed error
	for _, id := range req.IDs {
		if err := s.coll.Delete(id); err == nil {
			applied = append(applied, walRecord{Op: "delete", ID: id})
		} else if !errors.Is(err, docstore.ErrNotFound) {
			failed = err
			break
		}
	}
	if err := s.logRun(applied, failed); err != nil {
		return errResponse(err)
	}
	return &response{N: len(applied)}
}

// handleHealth reports the shard's document count and WAL size —
// surfaced through the coordinator into GET /readyz.
func (s *Server) handleHealth() *response {
	resp := &response{N: s.coll.Count()}
	if s.wal != nil {
		resp.WALBytes = s.wal.bytes()
	}
	return resp
}
