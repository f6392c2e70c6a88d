// Package storage implements the engine's row store. Since the MVCC
// refactor a table's rows live in a chain of immutable slab versions:
// each committed writer statement publishes a new Version, and readers
// pin one Version for the duration of a statement, never blocking on
// (or being blocked by) writers. Superseded versions are reclaimed by
// the Go garbage collector once the last reader snapshot drops them —
// versions hold no pointers to their successors or predecessors, only
// shared chunks.
//
// Copy-on-write is per chunk of chunkSize row slots: a writer that
// touches a slot of a published chunk copies just that chunk, while
// appends fill the shared tail chunk in place — slots at or beyond a
// published version's slot bound are invisible to every reader of that
// version, so in-place tail writes race with nothing.
//
// Row ids are slot positions and stay stable across versions; deletes
// tombstone the slot and queue it on a FIFO free list, and a later
// writer's insert reuses it. Reuse needs no gate: versions are
// copy-on-write, so a reader pinned to an older version still sees the
// slot's old row, and nothing addresses an uncommitted slot by id once
// its writer is gone (a transaction's changes stay in its private
// builder chain until commit, so rollback just drops them). This keeps
// capacity bounded under delete/insert churn.
package storage

import (
	"fmt"

	"tip/internal/types"
)

// Row is one stored tuple. Rows are immutable once stored: writers
// replace whole rows rather than mutating them in place, so a row
// reached through any version may be read without synchronisation.
type Row = []types.Value

// chunkSize is the number of row slots per slab chunk — the
// copy-on-write grain.
const chunkSize = 256

type chunk struct {
	rows [chunkSize]Row
	live [chunkSize]bool
}

// Version is one immutable snapshot of a table's rows. All methods are
// safe for concurrent use by any number of readers while writers build
// successor versions.
type Version struct {
	chunks []*chunk
	slots  int   // row slots visible in this version
	n      int   // live rows
	free   []int // tombstoned slots, oldest first
}

// NewVersion returns an empty version.
func NewVersion() *Version { return &Version{} }

// Len returns the number of live rows.
func (v *Version) Len() int { return v.n }

// Capacity returns the number of row slots including tombstones.
func (v *Version) Capacity() int { return v.slots }

// Get returns the row with the given id.
func (v *Version) Get(id int) (Row, bool) {
	if id < 0 || id >= v.slots {
		return nil, false
	}
	c := v.chunks[id/chunkSize]
	if !c.live[id%chunkSize] {
		return nil, false
	}
	return c.rows[id%chunkSize], true
}

// Scan visits every live row in id order until yield returns false.
func (v *Version) Scan(yield func(id int, r Row) bool) {
	for ci, c := range v.chunks {
		base := ci * chunkSize
		end := v.slots - base
		if end > chunkSize {
			end = chunkSize
		}
		for off := 0; off < end; off++ {
			if c.live[off] && !yield(base+off, c.rows[off]) {
				return
			}
		}
	}
}

// Builder mutates a copy-on-write successor of a base version. A
// builder must only be used by the one writer goroutine that holds the
// table's write lock; Commit publishes the new version, and dropping a
// builder without Commit discards every change (published chunks were
// never mutated in visible slots).
type Builder struct {
	base   *Version
	chunks []*chunk
	shared bool   // chunks aliases base.chunks' backing array
	owned  []bool // when !shared: chunks[i] is builder-local and freely mutable
	slots  int
	n      int
	popped int   // free entries consumed from base.free
	pushes []int // slots freed by this builder
}

// NewBuilder starts a successor of v.
//
// The builder starts out aliasing v's chunk-pointer slice rather than
// copying it — a pure-append statement (the INSERT hot path) then costs
// O(1) instead of O(table size). Appending a tail chunk may write the
// shared backing array past v's length, which no reader of v (or of any
// older version sharing the backing) ever indexes; replacing a chunk at
// an index a published version CAN see first privatizes the slice
// (see mutable).
func (v *Version) NewBuilder() *Builder {
	return &Builder{
		base:   v,
		chunks: v.chunks,
		shared: true,
		slots:  v.slots,
		n:      v.n,
	}
}

// privatize unshares the chunk-pointer slice so entries below the
// published bound may be replaced. Tail chunks this builder already
// appended are builder-local and stay freely mutable.
func (b *Builder) privatize() {
	chunks := append([]*chunk(nil), b.chunks...)
	owned := make([]bool, len(chunks))
	for i := len(b.base.chunks); i < len(chunks); i++ {
		owned[i] = true
	}
	b.chunks, b.owned, b.shared = chunks, owned, false
}

// mutable returns chunk ci as a builder-local chunk, copying a shared
// published chunk on first touch. ci == len(chunks) allocates the next
// tail chunk.
func (b *Builder) mutable(ci int) *chunk {
	if ci == len(b.chunks) {
		c := &chunk{}
		b.chunks = append(b.chunks, c)
		if !b.shared {
			b.owned = append(b.owned, true)
		}
		return c
	}
	if b.shared {
		if ci >= len(b.base.chunks) {
			// A tail chunk this builder appended: already builder-local.
			return b.chunks[ci]
		}
		b.privatize()
	}
	if !b.owned[ci] {
		c := *b.chunks[ci]
		b.chunks[ci] = &c
		b.owned[ci] = true
	}
	return b.chunks[ci]
}

// Len returns the live row count of the builder's working state.
func (b *Builder) Len() int { return b.n }

// Capacity returns the slot count of the builder's working state.
func (b *Builder) Capacity() int { return b.slots }

// Get returns a row of the builder's working state.
func (b *Builder) Get(id int) (Row, bool) {
	if id < 0 || id >= b.slots {
		return nil, false
	}
	c := b.chunks[id/chunkSize]
	if !c.live[id%chunkSize] {
		return nil, false
	}
	return c.rows[id%chunkSize], true
}

// Insert stores a row and returns its id, reusing the oldest slot a
// previous version tombstoned when there is one.
func (b *Builder) Insert(r Row) int {
	if b.popped < len(b.base.free) {
		id := b.base.free[b.popped]
		b.popped++
		c := b.mutable(id / chunkSize)
		c.rows[id%chunkSize] = r
		c.live[id%chunkSize] = true
		b.n++
		return id
	}
	id := b.slots
	ci, off := id/chunkSize, id%chunkSize
	var c *chunk
	if ci < len(b.chunks) {
		// Tail slots at or beyond the published bound are invisible to
		// every reader, so the shared tail chunk is filled in place.
		c = b.chunks[ci]
	} else {
		c = b.mutable(ci)
	}
	c.rows[off] = r
	c.live[off] = true
	b.slots = id + 1
	b.n++
	return id
}

// Delete tombstones a row, returning its former content and queueing
// the slot for reuse by later versions.
func (b *Builder) Delete(id int) (Row, error) {
	if id < 0 || id >= b.slots {
		return nil, fmt.Errorf("storage: no row %d", id)
	}
	ci, off := id/chunkSize, id%chunkSize
	if !b.chunks[ci].live[off] {
		return nil, fmt.Errorf("storage: no row %d", id)
	}
	c := b.mutable(ci)
	old := c.rows[off]
	c.rows[off] = nil
	c.live[off] = false
	b.n--
	b.pushes = append(b.pushes, id)
	return old, nil
}

// Update replaces a row's content, returning the former content.
func (b *Builder) Update(id int, r Row) (Row, error) {
	if id < 0 || id >= b.slots {
		return nil, fmt.Errorf("storage: no row %d", id)
	}
	ci, off := id/chunkSize, id%chunkSize
	if !b.chunks[ci].live[off] {
		return nil, fmt.Errorf("storage: no row %d", id)
	}
	c := b.mutable(ci)
	old := c.rows[off]
	c.rows[off] = r
	return old, nil
}

// Scan visits every live row of the builder's working state in id
// order until yield returns false.
func (b *Builder) Scan(yield func(id int, r Row) bool) {
	for ci, c := range b.chunks {
		base := ci * chunkSize
		end := b.slots - base
		if end > chunkSize {
			end = chunkSize
		}
		for off := 0; off < end; off++ {
			if c.live[off] && !yield(base+off, c.rows[off]) {
				return
			}
		}
	}
}

// Commit publishes the builder's state as a new immutable version.
// The caller installs it under the table's write lock; publication to
// lock-free readers happens through an atomic pointer store above this
// layer.
func (b *Builder) Commit() *Version {
	// The surviving tail of base.free shares its backing array;
	// appending this builder's pushes may write past base.free's
	// length into that backing, which is safe because only serialized
	// writers ever touch free lists.
	free := b.base.free[b.popped:]
	if len(b.pushes) > 0 {
		free = append(free, b.pushes...)
	}
	return &Version{
		chunks: b.chunks,
		slots:  b.slots,
		n:      b.n,
		free:   free,
	}
}
