package engine

import (
	"fmt"
	"strings"

	"tip/internal/exec"
	"tip/internal/sql/ast"
	"tip/internal/types"
)

// Statement memory governance. Every session owns one exec.MemAccount
// that its executor charges as it buffers intermediate state (sort
// buffers, hash tables, coalesce interval arrays, result rows). The
// account's budget caps one statement (SET STATEMENT_MEMORY, or the
// server default); the account is parented to the Database's global
// account, so engine-wide pressure is the sum of every in-flight
// statement and the server can shed load against a process budget.
//
// Budget overrun aborts the statement with exec.ErrMemory under the
// same discipline as cancellation: the executor polls the account at
// the cancellation poll points, which are ordered so a write either
// applies entirely or not at all (see cancel.go). Exec arms the budget
// and resets the account per statement; ExecScript does the same per
// script part. WAL replay and replication apply run statements without
// the arm/reset (exactly as they bypass the timeout timer) — their
// charges accumulate on the session account until the next Exec
// resets it.

// ErrMemory is the typed statement-memory-budget error, re-exported so
// callers above the engine (server, tools) can classify failures
// without importing exec.
var ErrMemory = exec.ErrMemory

// SetMemBudget installs the engine-wide memory budget: the cap on the
// summed intermediate state of all in-flight statements. Zero means no
// cap. The server checks MemAccount().Over against this budget to shed
// new statements before the process thrashes.
func (db *Database) SetMemBudget(n int64) { db.mem.SetBudget(n) }

// MemAccount exposes the engine-wide memory account (for the server's
// pressure checks and for metrics).
func (db *Database) MemAccount() *exec.MemAccount { return &db.mem }

// SetDefaultStmtMem installs the server-level per-statement memory
// budget: both the session's current cap and the value SET
// STATEMENT_MEMORY = DEFAULT reverts to. Zero means no cap. Call
// before serving statements; it is not synchronised with a running
// Exec.
func (s *Session) SetDefaultStmtMem(n int64) {
	s.defaultStmtMem = n
	s.stmtMem = n
}

// StmtMem reports the session's current per-statement memory budget in
// bytes (0 = no cap).
func (s *Session) StmtMem() int64 { return s.stmtMem }

// MemPeak reports the peak accounted bytes of the session's most recent
// Exec'd statement.
func (s *Session) MemPeak() int64 { return s.lastPeak }

// setMemory executes SET STATEMENT_MEMORY = <expr> | DEFAULT.
func (s *Session) setMemory(st *ast.SetMemory, params map[string]types.Value) (*exec.Result, error) {
	if st.Value == nil {
		s.stmtMem = s.defaultStmtMem
		return &exec.Result{}, nil
	}
	v, err := exec.EvalConst(s.env(params), st.Value)
	if err != nil {
		return nil, err
	}
	n, err := memValue(v)
	if err != nil {
		return nil, fmt.Errorf("engine: SET STATEMENT_MEMORY: %w", err)
	}
	s.stmtMem = n
	return &exec.Result{}, nil
}

// memValue coerces a SET STATEMENT_MEMORY operand: an integer is bytes,
// a string is a size ('64MB', '512k', '1048576'); zero disables the
// cap.
func memValue(v types.Value) (int64, error) {
	if v.Null {
		return 0, fmt.Errorf("value cannot be NULL")
	}
	switch v.T.Kind {
	case types.KindInt:
		n := v.Int()
		if n < 0 {
			return 0, fmt.Errorf("negative budget %d", n)
		}
		return n, nil
	case types.KindString:
		return ParseMemSize(v.Str())
	}
	return 0, fmt.Errorf("expected bytes or a size string, got %s", v.T)
}

// ParseMemSize parses a byte-size string: an integer with an optional
// unit suffix (B, K/KB/KiB, M/MB/MiB, G/GB/GiB; case-insensitive,
// binary multiples).
func ParseMemSize(str string) (int64, error) {
	s := strings.TrimSpace(str)
	i := 0
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		i++
	}
	if i == 0 {
		return 0, fmt.Errorf("invalid size %q", str)
	}
	var n int64
	for _, c := range s[:i] {
		d := int64(c - '0')
		if n > (1<<63-1-d)/10 {
			return 0, fmt.Errorf("size %q overflows", str)
		}
		n = n*10 + d
	}
	var shift uint
	switch strings.ToUpper(strings.TrimSpace(s[i:])) {
	case "", "B":
	case "K", "KB", "KIB":
		shift = 10
	case "M", "MB", "MIB":
		shift = 20
	case "G", "GB", "GIB":
		shift = 30
	default:
		return 0, fmt.Errorf("invalid size %q", str)
	}
	if shift > 0 && n > (1<<63-1)>>shift {
		return 0, fmt.Errorf("size %q overflows", str)
	}
	return n << shift, nil
}
