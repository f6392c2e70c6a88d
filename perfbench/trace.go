package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Spans of one operation share op;
// parent is the id of the enclosing span, 0 for a root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Class  string `json:"class"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer hands out span ids and owns the epoch. Spans are buffered per
// goroutine (spanBuf) and merged when the run ends, so recording takes
// no lock.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// spanBuf is one goroutine's spans. A nil *spanBuf records nothing, so
// the untraced run passes nil and pays only the nil checks.
type spanBuf struct {
	t     *tracer
	spans []span
}

func (t *tracer) buf() *spanBuf { return &spanBuf{t: t} }

// begin opens a span and returns its index in the buffer (-1 when not
// tracing).
func (b *spanBuf) begin(op int, parent int64, name, class string) int {
	if b == nil {
		return -1
	}
	b.spans = append(b.spans, span{
		ID: b.t.ids.Add(1), Parent: parent, Op: op, Name: name, Class: class,
		Start: time.Since(b.t.epoch).Nanoseconds(),
	})
	return len(b.spans) - 1
}

// end closes the span begin returned.
func (b *spanBuf) end(i int) {
	if b == nil || i < 0 {
		return
	}
	b.spans[i].End = time.Since(b.t.epoch).Nanoseconds()
}

// id is the span id of index i, for use as a parent.
func (b *spanBuf) id(i int) int64 {
	if b == nil || i < 0 {
		return 0
	}
	return b.spans[i].ID
}

// add records an already-timed span (a start and end measured by the
// caller, as the replica-lag observer does).
func (b *spanBuf) add(op int, parent int64, name, class string, start, end time.Time) {
	if b == nil {
		return
	}
	b.spans = append(b.spans, span{
		ID: b.t.ids.Add(1), Parent: parent, Op: op, Name: name, Class: class,
		Start: start.Sub(b.t.epoch).Nanoseconds(), End: end.Sub(b.t.epoch).Nanoseconds(),
	})
}

// merge concatenates buffers in start order.
func merge(bufs ...*spanBuf) []span {
	var all []span
	for _, b := range bufs {
		if b != nil {
			all = append(all, b.spans...)
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Start < all[j].Start })
	return all
}

// selfTimes returns each span's duration minus the part of it that its
// children cover, keyed by span id.
func selfTimes(spans []span) map[int64]int64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		covered := int64(0)
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		cur, curEnd := int64(-1), int64(-1)
		for _, k := range kids {
			lo, hi := max(k.Start, s.Start), min(k.End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curEnd {
				if curEnd > cur {
					covered += curEnd - cur
				}
				cur, curEnd = lo, hi
			} else if hi > curEnd {
				curEnd = hi
			}
		}
		if curEnd > cur {
			covered += curEnd - cur
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// writeSpans dumps spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
