package engine

// Fuzz targets for the WAL frame decoder, beside the SQL-level fuzz
// sweep in fuzz_test.go. Arbitrary bytes must decode to an error or a
// valid frame — never a panic or an unbounded allocation — because the
// decoder's input is whatever a crash left on disk.

import (
	"encoding/binary"
	"testing"

	"tip/internal/blade"
	"tip/internal/core"
	"tip/internal/temporal"
	"tip/internal/types"
)

func FuzzWALFrame(f *testing.F) {
	reg := blade.NewRegistry()
	if _, err := core.Register(reg); err != nil {
		f.Fatal(err)
	}
	now := temporal.MustDate(1999, 11, 12)
	plain := encodeWALPayload(walStmt{now, `INSERT INTO t VALUES (1)`, nil})
	withParams := encodeWALPayload(walStmt{now, `INSERT INTO t VALUES (:a, :b)`, map[string]types.Value{
		"a": types.NewInt(7),
		"b": types.NewString("x"),
	}}, walStmt{now, `DELETE FROM t`, nil})
	// Seed with frame bodies (decodeWALFrame's input excludes the
	// length prefix the replay loop consumes).
	body := func(epoch, seq uint64, payload []byte) []byte {
		fr := appendWALFrame(nil, epoch, seq, payload)
		_, n := binary.Uvarint(fr)
		return fr[n:]
	}
	f.Add(body(0, 1, plain))
	f.Add(body(3, 17, withParams))
	f.Add(body(0, 1, nil))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF})

	f.Fuzz(func(t *testing.T, data []byte) {
		// The fuzz input is a frame body (after the length prefix, which
		// the replay loop already bounds-checks).
		fr, err := decodeWALFrame(data)
		if err != nil {
			return
		}
		// A frame that checksums still carries an arbitrary payload;
		// payload decoding must degrade to an error just as cleanly.
		_, _ = decodeWALPayload(reg, fr.payload)
	})
}

// encodeWALPayload builds a unit's frame payload from its statements.
func encodeWALPayload(stmts ...walStmt) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(stmts)))
	for _, st := range stmts {
		buf = appendWALStmt(buf, st.now, st.sql, st.params)
	}
	return buf
}
