package shardnet

// mux.go is the client side of a shardnet connection: many calls in
// flight over one TCP stream, each tagged with a correlation
// id. A writer goroutine serializes frames onto the socket (batching
// queued frames into one flush) and a reader goroutine demultiplexes
// responses back to their waiters by correlation id.
//
// The three-way write-outcome classification survives pipelining by
// tracking each call through an explicit state machine:
//
//	pcQueued  — accepted, but the writer has not touched the frame. A
//	            call that fails or is timed out here is provably
//	            ErrNotSent: claiming the state with a CAS prevents the
//	            writer from ever writing it.
//	pcWritten — the writer has claimed the frame; bytes may be on the
//	            wire. Any failure from here on is ErrIndeterminate.
//	pcDone    — exactly one party (reader delivery, timeout, or
//	            connection teardown) has settled the outcome.
//
// Every transition is a CompareAndSwap, so a timeout racing the writer
// racing a dying connection still classifies each call exactly once.

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"covidkg/internal/metrics"
)

const (
	pcQueued  = 0
	pcWritten = 1
	pcDone    = 2
)

// muxWriteTimeout bounds one socket write so a peer that stopped
// reading cannot wedge the writer goroutine forever.
const muxWriteTimeout = 30 * time.Second

// errConnDead reports that the mux connection failed before this call
// was accepted; the caller redials instead of classifying the attempt.
var errConnDead = errors.New("shardnet: mux connection dead")

type pendingCall struct {
	corr  uint64
	buf   *[]byte // pooled backing storage; owned by the writer once enqueued
	frame []byte
	state atomic.Int32
	resp  *response
	err   error
	done  chan struct{}
}

// deliver settles the call's outcome. Only the goroutine that won the
// state CAS into pcDone may call it.
func (pc *pendingCall) deliver(resp *response, err error) {
	pc.resp = resp
	pc.err = err
	close(pc.done)
}

type muxConn struct {
	name string
	conn net.Conn
	met  *metrics.Registry

	writeCh chan *pendingCall
	deadCh  chan struct{}

	mu      sync.Mutex
	pending map[uint64]*pendingCall
	corr    uint64
	dead    bool
}

func newMuxConn(name string, conn net.Conn, met *metrics.Registry) *muxConn {
	m := &muxConn{
		name:    name,
		conn:    conn,
		met:     met,
		writeCh: make(chan *pendingCall, 256),
		deadCh:  make(chan struct{}),
		pending: make(map[uint64]*pendingCall),
	}
	go m.writeLoop()
	go m.readLoop()
	return m
}

func (m *muxConn) live() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return !m.dead
}

// drop forgets a pending call (timeout path) so a late response for it
// is discarded instead of leaking the map entry.
func (m *muxConn) drop(corr uint64) {
	m.mu.Lock()
	delete(m.pending, corr)
	m.mu.Unlock()
}

// do runs one pipelined exchange. The error, when non-nil, is either
// errConnDead (never accepted — redial) or wraps ErrNotSent /
// ErrIndeterminate.
func (m *muxConn) do(req *request, deadline time.Time) (*response, error) {
	buf := getBuf()
	m.mu.Lock()
	if m.dead {
		m.mu.Unlock()
		putBuf(buf)
		return nil, errConnDead
	}
	m.corr++
	corr := m.corr
	m.mu.Unlock()

	frame, err := appendRequestFrame((*buf)[:0], corr, req)
	if err != nil {
		putBuf(buf)
		return nil, fmt.Errorf("%w: encode for %s: %v", ErrNotSent, m.name, err)
	}
	*buf = frame
	pc := &pendingCall{corr: corr, buf: buf, frame: frame, done: make(chan struct{})}

	m.mu.Lock()
	if m.dead {
		m.mu.Unlock()
		putBuf(buf)
		return nil, errConnDead
	}
	m.pending[corr] = pc
	m.mu.Unlock()

	// A hair of grace past the propagated deadline lets the server's own
	// deadline_exceeded response arrive instead of racing it.
	timer := time.NewTimer(time.Until(deadline) + 100*time.Millisecond)
	defer timer.Stop()

	select {
	case m.writeCh <- pc:
		// Buffer ownership transferred to the writer.
	case <-m.deadCh:
		m.drop(corr)
		if pc.state.CompareAndSwap(pcQueued, pcDone) {
			putBuf(buf)
			return nil, errConnDead
		}
		<-pc.done // teardown claimed it first and delivered the outcome
		return pc.resp, pc.err
	case <-timer.C:
		m.drop(corr)
		if pc.state.CompareAndSwap(pcQueued, pcDone) {
			putBuf(buf)
			return nil, fmt.Errorf("%w: %s: deadline passed before the frame was written", ErrNotSent, m.name)
		}
		<-pc.done
		return pc.resp, pc.err
	}

	select {
	case <-pc.done:
		return pc.resp, pc.err
	case <-timer.C:
		m.drop(corr)
		if pc.state.CompareAndSwap(pcQueued, pcDone) {
			// The writer never claimed the frame: provably not sent. The
			// writer still owns the pooled buffer and frees it when it
			// pops the cancelled call.
			return nil, fmt.Errorf("%w: %s: deadline passed before the frame was written", ErrNotSent, m.name)
		}
		select {
		case <-pc.done: // delivery raced the timer; take the real outcome
			return pc.resp, pc.err
		default:
			return nil, fmt.Errorf("%w: %s: no reply within deadline", ErrIndeterminate, m.name)
		}
	}
}

// kill tears the connection down exactly once, classifying every
// pending call: still-queued frames were provably never written
// (ErrNotSent); claimed frames may be on the wire (ErrIndeterminate).
func (m *muxConn) kill(cause error) {
	m.mu.Lock()
	if m.dead {
		m.mu.Unlock()
		return
	}
	m.dead = true
	pend := m.pending
	m.pending = make(map[uint64]*pendingCall)
	m.mu.Unlock()

	close(m.deadCh)
	m.conn.Close()
	for _, pc := range pend {
		if pc.state.CompareAndSwap(pcQueued, pcDone) {
			pc.deliver(nil, fmt.Errorf("%w: %s: connection failed before the frame was written: %v", ErrNotSent, m.name, cause))
		} else if pc.state.CompareAndSwap(pcWritten, pcDone) {
			pc.deliver(nil, fmt.Errorf("%w: %s: connection failed awaiting reply: %v", ErrIndeterminate, m.name, cause))
		}
	}
}

func (m *muxConn) writeLoop() {
	bw := bufio.NewWriterSize(m.conn, 64<<10)
	for {
		select {
		case pc := <-m.writeCh:
			m.conn.SetWriteDeadline(time.Now().Add(muxWriteTimeout))
			if err := m.writeBatch(bw, pc); err != nil {
				m.kill(err)
				m.drainWrites()
				return
			}
		case <-m.deadCh:
			m.drainWrites()
			return
		}
	}
}

// writeBatch writes pc plus everything else already queued, then
// flushes once — pipelined callers share flushes and syscalls.
func (m *muxConn) writeBatch(bw *bufio.Writer, pc *pendingCall) error {
	for {
		if pc.state.CompareAndSwap(pcQueued, pcWritten) {
			_, err := bw.Write(pc.frame)
			putBuf(pc.buf)
			if err != nil {
				return err
			}
		} else {
			// Cancelled before the writer got here; just free the frame.
			putBuf(pc.buf)
		}
		select {
		case pc = <-m.writeCh:
		default:
			return bw.Flush()
		}
	}
}

// drainWrites empties the queue after teardown so no caller is left
// waiting on a frame nobody will write.
func (m *muxConn) drainWrites() {
	for {
		select {
		case pc := <-m.writeCh:
			if pc.state.CompareAndSwap(pcQueued, pcDone) {
				pc.deliver(nil, fmt.Errorf("%w: %s: connection failed before the frame was written", ErrNotSent, m.name))
			}
			putBuf(pc.buf)
		default:
			return
		}
	}
}

func (m *muxConn) readLoop() {
	var rbuf []byte
	br := bufio.NewReaderSize(m.conn, 64<<10)
	for {
		payload, err := readRawFrame(br, &rbuf)
		if err != nil {
			m.kill(err)
			return
		}
		corr, resp, derr := decodeBinaryResponse(payload)
		if derr != nil {
			// Protocol desync: nothing on this stream can be trusted.
			m.kill(fmt.Errorf("shardnet: %s: %w", m.name, derr))
			return
		}
		m.mu.Lock()
		pc := m.pending[corr]
		delete(m.pending, corr)
		m.mu.Unlock()
		if pc == nil {
			continue // late reply for a timed-out call
		}
		if pc.state.CompareAndSwap(pcWritten, pcDone) {
			pc.deliver(resp, nil)
		}
	}
}
