package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tip/internal/blade"
	"tip/internal/client"
	"tip/internal/core"
	"tip/internal/exec"
	"tip/internal/obs"
	"tip/internal/types"
)

// executor is what a closed-loop client sends statements through: a
// client.Conn to the primary, or a client.Router over primary and
// replica.
type executor interface {
	Exec(sql string, params map[string]types.Value) (*exec.Result, error)
	Close() error
}

// retry is the clients' policy: transient busy, shutdown and transport
// failures are retried, as a production client would.
var retry = &client.RetryPolicy{MaxAttempts: 3}

// connect opens one closed-loop client. Its counters land in metrics.
func connect(s spec, c *cluster, metrics *obs.Registry) (executor, error) {
	reg := blade.NewRegistry()
	core.MustRegister(reg)
	opts := client.Options{Retry: retry, Metrics: metrics}
	if s.replica {
		return client.NewRouter(c.psrv.Addr(), c.replicaAddrs(), reg,
			client.RouterOptions{Conn: opts, ReadYourWrites: true, Metrics: metrics})
	}
	return client.ConnectOpts(c.psrv.Addr(), reg, opts)
}

// outcome is one operation's result as the client saw it.
type outcome struct {
	ns    int64 // first statement sent to last reply received
	acked bool  // every statement succeeded
	err   string
}

// pass is one closed-loop run of an operation sequence.
type pass struct {
	elapsed  time.Duration
	outcomes []outcome // indexed by op id
	lagNs    []int64   // replica lag per acknowledged write (replica_reads)
	lagSeq   uint64    // largest seq distance seen at a write's ack
	lagMiss  int       // writes the replica never showed within the wait bound
	mismatch []string  // analytics answers that differ from the reference
	spans    []span    // traced run only
	metrics  *obs.Registry
	stopped  bool // the safety deadline cut the sequence short
}

// lagWait bounds how long the lag observer waits for one write.
const lagWait = 30 * time.Second

// lagReq is an acknowledged write handed to the lag observer.
type lagReq struct {
	op  int
	ack time.Time
	seq uint64
}

// runPass drives the operation sequence through s.clients closed-loop
// clients: each takes the next operation, sends its statements one at a
// time and waits for every reply before taking another. With a tracer,
// spans are recorded around each operation and each client call; check,
// when non-nil, validates a read's answer outside the timed interval.
func runPass(s spec, c *cluster, ops []op, tr *tracer, deadline time.Duration,
	check func(*op, *exec.Result) error) (*pass, error) {
	p := &pass{outcomes: make([]outcome, len(ops)), metrics: obs.NewRegistry()}
	clients := make([]executor, s.clients)
	for i := range clients {
		ex, err := connect(s, c, p.metrics)
		if err != nil {
			for _, e := range clients[:i] {
				_ = e.Close()
			}
			return nil, fmt.Errorf("connect: %w", err)
		}
		clients[i] = ex
	}
	bufs := make([]*spanBuf, s.clients+1)
	if tr != nil {
		for i := range bufs {
			bufs[i] = tr.buf()
		}
	}

	// The lag observer turns each acknowledged write into the time until
	// the replica reports its seq applied. The channel holds one entry
	// per operation, so a client never blocks on it.
	var lagCh chan lagReq
	var lagDone sync.WaitGroup
	var lagMu sync.Mutex
	if s.replica {
		lagCh = make(chan lagReq, len(ops))
		lagDone.Add(1)
		go func(b *spanBuf) {
			defer lagDone.Done()
			for req := range lagCh {
				ok := c.rep.WaitForSeq(req.seq, lagWait)
				now := time.Now()
				b.add(req.op, 0, "repl", ops[req.op].class, req.ack, now)
				lagMu.Lock()
				if ok {
					p.lagNs = append(p.lagNs, now.Sub(req.ack).Nanoseconds())
				} else {
					p.lagMiss++
				}
				lagMu.Unlock()
			}
		}(bufs[s.clients])
	}

	var next atomic.Int64
	var stop atomic.Bool
	var mmu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for ci, ex := range clients {
		wg.Add(1)
		go func(ex executor, b *spanBuf) {
			defer wg.Done()
			for !stop.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				if time.Since(start) > deadline {
					stop.Store(true)
					return
				}
				o := &ops[i]
				root := b.begin(o.id, 0, "op", o.class)
				t0 := time.Now()
				var res *exec.Result
				var err error
				for _, st := range o.stmts {
					sp := b.begin(o.id, b.id(root), "client", o.class)
					res, err = ex.Exec(st, nil)
					b.end(sp)
					if err != nil {
						break
					}
				}
				ns := time.Since(t0).Nanoseconds()
				b.end(root)
				out := outcome{ns: ns, acked: err == nil}
				if err != nil {
					out.err = err.Error()
					if o.stmts[0] == "BEGIN" {
						_, _ = ex.Exec("ROLLBACK", nil) // leave no transaction open
					}
				}
				p.outcomes[i] = out
				if err != nil {
					continue
				}
				if o.write && lagCh != nil {
					seq := c.pdb.WALSeq()
					applied := c.rep.AppliedSeq()
					lagCh <- lagReq{op: o.id, ack: time.Now(), seq: seq}
					if seq > applied {
						lagMu.Lock()
						p.lagSeq = max(p.lagSeq, seq-applied)
						lagMu.Unlock()
					}
				}
				if check != nil {
					if cerr := check(o, res); cerr != nil {
						mmu.Lock()
						p.mismatch = append(p.mismatch, fmt.Sprintf("op %d (%s): %v", o.id, o.class, cerr))
						mmu.Unlock()
					}
				}
			}
		}(ex, bufs[ci])
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	p.stopped = stop.Load()
	if lagCh != nil {
		close(lagCh)
		lagDone.Wait()
	}
	for _, ex := range clients {
		_ = ex.Close()
	}
	if tr != nil {
		p.spans = merge(bufs...)
	}
	return p, nil
}
