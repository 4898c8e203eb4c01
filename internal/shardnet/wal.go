package shardnet

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"covidkg/internal/jsondoc"
	"covidkg/internal/metrics"
)

// walRecord is one committed write. Records are appended strictly after
// the write has been applied to the in-memory store and acked
// strictly after the record is fsynced, so on SIGKILL the WAL can lag
// the unacked tail of memory (fine — those writes were never
// acknowledged) but an acked write is always recoverable: no lost
// writes. Conversely a record is only written for applied writes, so
// replay can never introduce a ghost. Idem carries the request's
// idempotency key so the dedup table itself survives a crash — a
// client retrying a write across a server restart still gets
// exactly-once semantics.
type walRecord struct {
	Op   string // "insert" | "delete"
	ID   string
	Doc  jsondoc.Doc
	Idem string
}

// wal is an append-only log of committed writes with per-record
// integrity: [4-byte BE length][4-byte BE CRC32][payload]. Replay
// stops at the first record whose length or checksum does not hold and
// truncates the file there — a torn tail from a crash mid-append is
// discarded rather than poisoning recovery, and everything before it
// is intact by construction (each append is fsynced before ack).
//
// The payload's first byte versions its encoding; walBinV1, the one
// format there is, reuses the wire codec's value encoding and pooled
// buffers. A record whose length and checksum hold but whose payload
// does not decode — a version byte this build does not know — is not a
// torn tail: it and everything behind it were acked, so openWAL fails
// and leaves the file untouched rather than truncate them away.
type wal struct {
	mu   sync.Mutex
	f    *os.File
	size int64

	// Group commit (see append): open gathers arrivals while committing
	// is set; idle wakes the open group's leader when the file is free.
	open       *walGroup
	committing bool
	idle       *sync.Cond

	// fsyncs counts Sync calls; against the records appended it shows
	// how well concurrent writers share one.
	fsyncs *metrics.Counter
}

const maxWALRecord = 16 << 20

// walBinV1 tags a binary WAL record: version byte, op byte, uvarint
// length-prefixed id and idem strings, then a presence byte optionally
// followed by the codec-encoded document.
const walBinV1 = 0x01

// Op bytes. Byte 3 (a migration upsert, "put") is retired and never
// reused: a checksum-valid record carrying it fails replay like any
// other record this build cannot decode.
const (
	walOpInsert = 1
	walOpDelete = 2
)

func appendWALRecord(b []byte, rec walRecord) ([]byte, error) {
	b = append(b, walBinV1)
	switch rec.Op {
	case "insert":
		b = append(b, walOpInsert)
	case "delete":
		b = append(b, walOpDelete)
	default:
		return b, fmt.Errorf("shardnet: wal: unknown op %q", rec.Op)
	}
	b = appendUvarint(b, uint64(len(rec.ID)))
	b = append(b, rec.ID...)
	b = appendUvarint(b, uint64(len(rec.Idem)))
	b = append(b, rec.Idem...)
	if len(rec.Doc) == 0 {
		return append(b, 0), nil
	}
	b = append(b, 1)
	return jsondoc.AppendBinary(b, rec.Doc)
}

// decodeWALRecord parses one record payload. Like the wire decoder it
// checks every claimed length against the bytes remaining before
// anything is sized from it.
func decodeWALRecord(p []byte) (walRecord, error) {
	var rec walRecord
	if len(p) == 0 {
		return rec, fmt.Errorf("shardnet: wal: empty record")
	}
	if p[0] != walBinV1 {
		return rec, fmt.Errorf("shardnet: wal: unknown record version 0x%02x", p[0])
	}
	if len(p) < 2 {
		return rec, fmt.Errorf("shardnet: wal: truncated record")
	}
	switch p[1] {
	case walOpInsert:
		rec.Op = "insert"
	case walOpDelete:
		rec.Op = "delete"
	default:
		return rec, fmt.Errorf("shardnet: wal: unknown op byte 0x%02x", p[1])
	}
	pos := 2
	var err error
	if rec.ID, pos, err = readWALString(p, pos); err != nil {
		return rec, err
	}
	if rec.Idem, pos, err = readWALString(p, pos); err != nil {
		return rec, err
	}
	if pos >= len(p) {
		return rec, fmt.Errorf("shardnet: wal: truncated record")
	}
	if p[pos] == 0 {
		return rec, nil
	}
	if rec.Doc, err = jsondoc.FromBinary(p[pos+1:]); err != nil {
		return rec, fmt.Errorf("shardnet: wal: %w", err)
	}
	return rec, nil
}

func readWALString(p []byte, pos int) (string, int, error) {
	n, pos, err := readUvarint(p, pos)
	if err != nil {
		return "", 0, fmt.Errorf("shardnet: wal: %w", err)
	}
	if n > uint64(len(p)-pos) {
		return "", 0, fmt.Errorf("shardnet: wal: string of %d bytes with %d remaining", n, len(p)-pos)
	}
	return string(p[pos : pos+int(n)]), pos + int(n), nil
}

// openWAL opens (creating if absent) the log at path and replays every
// intact record through apply in append order. The file is truncated
// to the end of the last intact record so subsequent appends extend a
// clean tail.
func openWAL(path string, apply func(walRecord)) (*wal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("shardnet: open wal: %w", err)
	}
	valid, err := replayWAL(f, apply)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("shardnet: replay wal %s: %w", path, err)
	}
	if err := f.Truncate(valid); err != nil {
		f.Close()
		return nil, fmt.Errorf("shardnet: truncate torn wal tail: %w", err)
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	w := &wal{f: f, size: valid, fsyncs: new(metrics.Counter)}
	w.idle = sync.NewCond(&w.mu)
	return w, nil
}

// replayWAL scans records from the start of f, calling apply for each
// intact one, and returns the byte offset of the end of the last intact
// record. A short header, a length out of range, a short payload or a
// checksum mismatch is a stop condition, not an error: what follows is
// a torn tail. A record that passes all four and still does not decode
// is an error.
func replayWAL(f *os.File, apply func(walRecord)) (valid int64, err error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, err
	}
	var hdr [8]byte
	for {
		if _, err := io.ReadFull(f, hdr[:]); err != nil {
			return valid, nil // clean EOF or torn header
		}
		n := binary.BigEndian.Uint32(hdr[:4])
		sum := binary.BigEndian.Uint32(hdr[4:])
		if n == 0 || n > maxWALRecord {
			return valid, nil
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(f, payload); err != nil {
			return valid, nil // torn payload
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return valid, nil // corrupt record
		}
		rec, err := decodeWALRecord(payload)
		if err != nil {
			return valid, fmt.Errorf("record at byte offset %d (version byte 0x%02x) has a valid length and checksum but does not decode: %w", valid, payload[0], err)
		}
		valid += int64(8 + len(payload))
		apply(rec)
	}
}

// walGroup is one group commit: the framed records of every appender
// that arrived while the previous group was being written, and the
// single outcome they all share.
type walGroup struct {
	buf  *[]byte
	done chan struct{} // closed once err is final
	err  error
}

// append durably commits a run of records, in order, and is the only
// way bytes reach the log. Appenders frame their run into a pooled
// buffer outside the lock, then join the open group under w.mu. The
// appender that opened the group leads it: it waits for the group ahead
// to finish, closes its own to newcomers, and commits it with one write
// and one fsync, while later arrivals gather in the next group. Every
// member returns that one outcome, and none returns before the fsync
// has — so a caller that acks after append never acks a write a crash
// can lose, whether it arrived alone or with sixty others. Groups reach
// the file in the order they opened and a run stays contiguous, so a
// crash leaves an intact prefix of whole records plus at most a torn
// tail.
func (w *wal) append(recs ...walRecord) error {
	bp := getBuf()
	defer putBuf(bp)
	buf := (*bp)[:0]
	for _, rec := range recs {
		start := len(buf)
		var err error
		if buf, err = appendWALRecord(append(buf, 0, 0, 0, 0, 0, 0, 0, 0), rec); err != nil {
			return fmt.Errorf("shardnet: encode wal record: %w", err)
		}
		payload := buf[start+8:]
		if len(payload) > maxWALRecord {
			return fmt.Errorf("shardnet: wal record of %d bytes exceeds %d limit", len(payload), maxWALRecord)
		}
		binary.BigEndian.PutUint32(buf[start:], uint32(len(payload)))
		binary.BigEndian.PutUint32(buf[start+4:], crc32.ChecksumIEEE(payload))
	}
	*bp = buf

	w.mu.Lock()
	g := w.open
	leader := g == nil
	if leader {
		g = &walGroup{buf: getBuf(), done: make(chan struct{})}
		w.open = g
	}
	*g.buf = append(*g.buf, buf...)
	if !leader {
		w.mu.Unlock()
		<-g.done
		return g.err
	}
	for w.committing {
		w.idle.Wait()
	}
	w.open = nil
	w.committing = true
	w.mu.Unlock()

	if _, err := w.f.Write(*g.buf); err != nil {
		g.err = fmt.Errorf("shardnet: append wal: %w", err)
	} else {
		w.fsyncs.Inc()
		if err := w.f.Sync(); err != nil {
			g.err = fmt.Errorf("shardnet: fsync wal: %w", err)
		}
	}

	w.mu.Lock()
	if g.err == nil {
		w.size += int64(len(*g.buf))
	}
	w.committing = false
	w.idle.Signal() // at most one leader waits: the open group's
	w.mu.Unlock()
	putBuf(g.buf)
	close(g.done)
	return g.err
}

// bytes returns the current log size (exposed via the health op so
// operators can watch growth).
func (w *wal) bytes() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

func (w *wal) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.f.Close()
}
