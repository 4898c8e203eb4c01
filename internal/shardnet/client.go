package shardnet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"covidkg/internal/breaker"
	"covidkg/internal/metrics"
)

// Write-outcome sentinels. The coordinator classifies every transport
// failure into exactly one of these so callers (and the chaos-bench
// write audit) can reason honestly about what a failed write means:
//
//   - ErrNotSent: the request definitively never reached the server
//     (breaker open, dial refused/timed out, or the frame provably
//     never left the mux write queue). The write was NOT applied; it
//     is safe to count as rejected.
//   - ErrIndeterminate: the request may have been sent but the reply
//     was lost (mid-stream EOF, read timeout, SIGKILL between apply
//     and ack). The write MAY have been applied. Only a retry with the
//     same idempotency key — or an audit read after recovery — can
//     resolve it.
var (
	ErrNotSent       = errors.New("shardnet: request not sent")
	ErrIndeterminate = errors.New("shardnet: request outcome indeterminate")
)

// clientOpts tunes one shard connection group.
type clientOpts struct {
	dialTimeout time.Duration // per-dial cap
	callTimeout time.Duration // per-call cap when the caller's ctx has no deadline
	hedgeDelay  time.Duration // fixed hedge budget; 0 = adaptive 2×p95
	muxConns    int           // multiplexed connections per shard
	brk         breaker.Config
	met         *metrics.Registry
}

func (o *clientOpts) fillDefaults() {
	if o.dialTimeout <= 0 {
		o.dialTimeout = 2 * time.Second
	}
	if o.callTimeout <= 0 {
		o.callTimeout = 10 * time.Second
	}
	if o.muxConns <= 0 {
		o.muxConns = 2
	}
	if o.met == nil {
		o.met = metrics.NewRegistry()
	}
}

// shardClient is the coordinator's handle to one shard server, guarded
// by a circuit breaker. It runs a small set of multiplexed connections
// with many requests pipelined on each: calls take the live ones
// round-robin, and a call that finds none live dials the slot under the
// cursor.
type shardClient struct {
	shard int
	name  string
	addr  string
	opts  clientOpts
	brk   *breaker.Breaker
	met   *metrics.Registry

	mu     sync.Mutex
	slots  []muxSlot
	rr     uint // round-robin cursor over slots
	closed bool
}

// muxSlot is one position in the connection set.
type muxSlot struct {
	mc   *muxConn
	dial *slotDial // non-nil while a redial of this slot is in flight
}

// slotDial is one in-flight dial; callers that land on the slot while
// it runs wait on done and share its outcome, so a cold or reconnecting
// client makes one dial per dead slot however many calls arrive. The
// dial runs under its first caller's context: if that caller gives up,
// the waiters fail ErrNotSent with it and their retry schedule redials.
type slotDial struct {
	done chan struct{}
	mc   *muxConn
	err  error
}

func newShardClient(shard int, name, addr string, opts clientOpts) *shardClient {
	opts.fillDefaults()
	c := &shardClient{shard: shard, name: name, addr: addr, opts: opts, met: opts.met}
	c.brk = breaker.New(opts.brk)
	c.slots = make([]muxSlot, opts.muxConns)
	return c
}

// conn returns the next live connection round-robin, or, when no slot
// holds one, dials the slot under the cursor. A dial failure is the one
// transport error with a definitive meaning: the request was never
// sent.
func (c *shardClient) conn(ctx context.Context) (*muxConn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, fmt.Errorf("%w: client for %s closed", ErrNotSent, c.name)
	}
	c.rr++
	n := uint(len(c.slots))
	for i := uint(0); i < n; i++ {
		if mc := c.slots[(c.rr+i)%n].mc; mc != nil && mc.live() {
			c.mu.Unlock()
			return mc, nil
		}
	}
	s := &c.slots[c.rr%n]
	if d := s.dial; d != nil {
		c.mu.Unlock()
		select {
		case <-d.done:
			return d.mc, d.err
		case <-ctx.Done():
			return nil, fmt.Errorf("%w: dial %s (%s): %v", ErrNotSent, c.name, c.addr, ctx.Err())
		}
	}
	d := &slotDial{done: make(chan struct{})}
	s.dial = d
	c.mu.Unlock()

	dialer := net.Dialer{Timeout: c.opts.dialTimeout}
	conn, err := dialer.DialContext(ctx, "tcp", c.addr)

	c.mu.Lock()
	switch {
	case err != nil:
		d.err = fmt.Errorf("%w: dial %s (%s): %v", ErrNotSent, c.name, c.addr, err)
	case c.closed:
		conn.Close()
		d.err = fmt.Errorf("%w: client for %s closed", ErrNotSent, c.name)
	default:
		d.mc = newMuxConn(c.name, conn, c.met)
		s.mc = d.mc
	}
	s.dial = nil
	c.mu.Unlock()
	close(d.done)
	return d.mc, d.err
}

// call performs one request/response exchange. Error classification:
//
//	breaker open, dial failure, frame
//	provably never written             → ErrNotSent   (+ breaker Failure)
//	write/read failure, reply lost     → ErrIndeterminate (+ breaker Failure)
//	server responded with an error     → decoded app error (breaker Success:
//	                                     the LINK is healthy; not-found is
//	                                     not a reason to stop dialing)
//
// The caller's context deadline is both enforced locally (per-call
// timers in the mux) and propagated in the frame (DeadlineUnixMicro) so
// the server stops working for callers that have given up.
func (c *shardClient) call(ctx context.Context, req *request) (*response, error) {
	if !c.brk.Allow() {
		c.met.Counter("shardnet.client.breaker_rejected").Inc()
		return nil, fmt.Errorf("%w: breaker open for %s", ErrNotSent, c.name)
	}
	start := time.Now()
	deadline, ok := ctx.Deadline()
	if !ok {
		deadline = start.Add(c.opts.callTimeout)
	}
	req.DeadlineUnixMicro = deadline.UnixMicro()

	// A connection can die between conn returning it and do accepting
	// the call; nothing was written, so the attempt takes another
	// connection once before it is reported.
	var resp *response
	err := errConnDead
	for attempt := 0; attempt < 2 && errors.Is(err, errConnDead); attempt++ {
		mc, cerr := c.conn(ctx)
		if cerr != nil {
			c.brk.Failure()
			c.met.Counter("shardnet.client.dial_errors").Inc()
			return nil, cerr
		}
		resp, err = mc.do(req, deadline)
	}
	if err != nil {
		c.brk.Failure()
		c.met.Counter("shardnet.client.io_errors").Inc()
		if errors.Is(err, errConnDead) {
			err = fmt.Errorf("%w: %s: %v", ErrNotSent, c.name, err)
		}
		return nil, err
	}
	c.brk.Success()
	c.met.Histogram("shardnet.call").Observe(time.Since(start))
	if werr := decodeWireErr(c.shard, resp.ErrCode, resp.ErrMsg); werr != nil {
		return nil, werr
	}
	return resp, nil
}

// currentHedgeDelay is the adaptive hedge budget: twice the observed
// p95 call latency, clamped to [1ms, 250ms], defaulting to
// 25ms until 16 calls have been observed. A fixed opts.hedgeDelay
// overrides.
func (c *shardClient) currentHedgeDelay() time.Duration {
	if c.opts.hedgeDelay > 0 {
		return c.opts.hedgeDelay
	}
	snap := c.met.Histogram("shardnet.call").Snapshot()
	if snap.Count < 16 {
		return 25 * time.Millisecond
	}
	d := time.Duration(snap.P95Us * 2 * float64(time.Microsecond))
	if d < time.Millisecond {
		d = time.Millisecond
	}
	if d > 250*time.Millisecond {
		d = 250 * time.Millisecond
	}
	return d
}

// hedgedCall races a duplicate request against a slow first attempt:
// if no reply lands within the adaptive budget, a second request is
// launched and the first success wins. The hedge is pipelined like any
// call (round-robin steers it to another connection when more than one
// is live). Only for idempotent reads — the
// coordinator's write path never hedges (retries with idempotency keys
// cover writes instead). A fast failure is returned immediately and
// left to the caller's retry policy; hedging exists for the
// slow-but-alive shard, not the dead one.
func (c *shardClient) hedgedCall(ctx context.Context, req *request) (*response, error) {
	type result struct {
		resp *response
		err  error
	}
	ch := make(chan result, 2)
	launch := func(r request) {
		go func() {
			resp, err := c.call(ctx, &r)
			ch <- result{resp, err}
		}()
	}
	launch(*req)
	pending := 1
	hedged := false
	timer := time.NewTimer(c.currentHedgeDelay())
	defer timer.Stop()

	var lastErr error
	for pending > 0 {
		select {
		case r := <-ch:
			pending--
			if r.err == nil {
				return r.resp, nil
			}
			lastErr = r.err
			// A fast hard failure: do not burn the hedge on a dead shard;
			// bubble up and let the retry layer back off.
		case <-timer.C:
			if !hedged {
				hedged = true
				pending++
				c.met.Counter("shardnet.client.hedges").Inc()
				launch(*req)
			}
		case <-ctx.Done():
			if lastErr != nil {
				return nil, lastErr
			}
			return nil, fmt.Errorf("%w: %s: %v", ErrIndeterminate, c.name, ctx.Err())
		}
	}
	return nil, lastErr
}

// state reports the breaker state string for readiness reporting.
func (c *shardClient) state() string { return c.brk.State().String() }

func (c *shardClient) close() {
	c.mu.Lock()
	c.closed = true
	var conns []*muxConn
	for i := range c.slots {
		if mc := c.slots[i].mc; mc != nil {
			conns = append(conns, mc)
		}
	}
	c.mu.Unlock()
	for _, mc := range conns {
		mc.kill(errors.New("client closed"))
	}
}
