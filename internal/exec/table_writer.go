package exec

import (
	"fmt"
	"maps"

	"tip/internal/index"
	"tip/internal/storage"
	"tip/internal/temporal"
	"tip/internal/types"
)

// TableWriter is a transaction's overlay of one table: the private
// next version its statements build on, published by Commit. The
// caller must hold the table's write lock for the writer's whole
// lifetime; exactly one of Commit or Discard must end it. Each
// statement opens on top of the overlay (BeginStmt) and ends with
// EndStmt: a success folds into the overlay, a failure leaves no
// trace, so statements stay all-or-nothing inside a transaction.
//
// Hash index changes are the one part that touches shared state before
// Commit: postings are added/killed in the shared cores stamped with
// the statement's sequence, which no published version carries yet. A
// journal of the whole transaction lets EndStmt revert one statement
// and Discard all of them. Row and period index changes stay private.
type TableWriter struct {
	t       *Table
	base    *TableVersion // the published version the overlay started from
	cur     *TableVersion // the overlay: base plus every folded statement
	hashOps []hashOp      // journal of every folded statement and the open one

	// The open statement (see BeginStmt).
	seq     uint64
	horizon uint64
	mark    int // len(hashOps) when the statement began
	rows    *storage.Builder
	periods map[int]*index.PeriodBuilder
}

type hashOp struct {
	add bool
	col int
	key string
	id  int
	seq uint64
}

// BeginWrite opens an overlay over the table's latest version.
func (t *Table) BeginWrite() *TableWriter {
	v := t.Snapshot()
	return &TableWriter{t: t, base: v, cur: v}
}

// Version returns the overlay's current state: what the transaction's
// own statements read.
func (w *TableWriter) Version() *TableVersion { return w.cur }

// BeginStmt opens a statement on top of the overlay. seq stamps its
// hash postings; dead postings at or below horizon may be reclaimed,
// so horizon must stay below the transaction's first statement's seq:
// a posting an earlier statement killed must survive until Discard.
func (w *TableWriter) BeginStmt(seq, horizon uint64) {
	w.seq, w.horizon, w.mark = seq, horizon, len(w.hashOps)
	w.rows = w.cur.Rows.NewBuilder()
}

// EndStmt closes the open statement: ok folds it into the overlay,
// otherwise its hash postings are reverted and its builders dropped.
func (w *TableWriter) EndStmt(ok bool) {
	if ok {
		nv := &TableVersion{
			Seq:     w.seq,
			Rows:    w.rows.Commit(),
			Hash:    w.cur.Hash,
			Periods: w.cur.Periods,
		}
		if len(w.periods) > 0 {
			nv.Periods = maps.Clone(w.cur.Periods)
			for pos, b := range w.periods {
				nv.Periods[pos] = b.Commit()
			}
		}
		nv.Stats = ComputeStats(nv)
		w.cur = nv
	} else {
		w.revert(w.mark)
	}
	w.rows = nil
	clear(w.periods)
}

// Commit publishes the overlay as the table's latest version under
// the transaction's commit sequence. An overlay no statement folded
// into publishes nothing.
func (w *TableWriter) Commit(seq uint64) {
	if w.cur == w.base {
		return
	}
	w.cur.Seq = seq // the overlay is private until this Install
	w.t.Install(w.cur)
}

// Discard abandons the overlay: every staged hash-index posting is
// physically reverted; everything else was never visible outside it.
func (w *TableWriter) Discard() { w.revert(0) }

// revert undoes the journaled hash-index changes from position from
// on, newest first.
func (w *TableWriter) revert(from int) {
	for i := len(w.hashOps) - 1; i >= from; i-- {
		op := w.hashOps[i]
		ix := w.cur.Hash[op.col]
		if op.add {
			ix.UndoAdd(op.key, op.id, op.seq)
		} else {
			ix.UndoRemove(op.key, op.id, op.seq)
		}
	}
	w.hashOps = w.hashOps[:from]
}

// Get returns a row of the open statement's working state.
func (w *TableWriter) Get(id int) (storage.Row, bool) { return w.rows.Get(id) }

// Insert stores a row, returning its id.
func (w *TableWriter) Insert(r storage.Row) int { return w.rows.Insert(r) }

// Delete tombstones a row, returning its former content.
func (w *TableWriter) Delete(id int) (storage.Row, error) { return w.rows.Delete(id) }

// Update replaces a row's content, returning the former content.
func (w *TableWriter) Update(id int, r storage.Row) (storage.Row, error) {
	return w.rows.Update(id, r)
}

func (w *TableWriter) periodBuilder(pos int) *index.PeriodBuilder {
	b, ok := w.periods[pos]
	if !ok {
		if w.periods == nil {
			w.periods = make(map[int]*index.PeriodBuilder)
		}
		b = index.NewPeriodBuilder(w.cur.Periods[pos])
		w.periods[pos] = b
	}
	return b
}

// IndexRow adds a row to every index of the table. Hash keys are
// formatted at now, matching lookup-side key formatting.
func (w *TableWriter) IndexRow(id int, row Row, now temporal.Chronon) error {
	for pos, ix := range w.cur.Hash {
		if !row[pos].Null {
			key := row[pos].Key(now)
			ix.Add(key, id, w.seq, w.horizon)
			w.hashOps = append(w.hashOps, hashOp{add: true, col: pos, key: key, id: id, seq: w.seq})
		}
	}
	for pos := range w.cur.Periods {
		if err := AddPeriodEntries(w.periodBuilder(pos), row[pos], id); err != nil {
			return err
		}
	}
	return nil
}

// UnindexRow removes a row from every index of the table.
func (w *TableWriter) UnindexRow(id int, row Row, now temporal.Chronon) {
	for pos, ix := range w.cur.Hash {
		if !row[pos].Null {
			key := row[pos].Key(now)
			ix.Remove(key, id, w.seq, w.horizon)
			w.hashOps = append(w.hashOps, hashOp{add: false, col: pos, key: key, id: id, seq: w.seq})
		}
	}
	for pos := range w.cur.Periods {
		w.periodBuilder(pos).Remove(id)
	}
}

// AddPeriodEntries indexes a temporal value's periods into a period
// index builder (shared by the DML path and bulk index builds).
func AddPeriodEntries(b *index.PeriodBuilder, v types.Value, id int) error {
	if v.Null {
		return nil
	}
	switch obj := v.Obj().(type) {
	case temporal.Element:
		b.AddElement(obj, id)
	case temporal.Period:
		b.AddPeriod(obj, id)
	case temporal.Chronon:
		b.AddPeriod(obj.Period(), id)
	case temporal.Instant:
		b.AddPeriod(temporal.Period{Start: obj, End: obj}, id)
	default:
		return fmt.Errorf("exec: PERIOD index cannot index %s values", v.T)
	}
	return nil
}
