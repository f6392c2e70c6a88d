package exec

import (
	"sort"
	"strings"

	"tip/internal/sql/ast"
)

// StatementTables reports which tables a statement binds, split into the
// set it only reads and the set it mutates. Names are lower-cased and
// deduplicated; a table both read and written appears only in writes.
// The walk is purely syntactic (it descends into subqueries, EXISTS, IN
// and derived tables), so it can run before binding — the engine uses it
// to decide which per-table locks a statement needs before touching any
// shared state. Unknown tables are reported too; resolution errors
// surface later, during binding.
func StatementTables(stmt ast.Statement) (reads, writes []string) {
	c := &tableCollector{reads: map[string]bool{}, writes: map[string]bool{}}
	switch st := stmt.(type) {
	case *ast.Select:
		c.selectStmt(st)
	case *ast.Insert:
		c.writes[strings.ToLower(st.Table)] = true
		if st.Query != nil {
			c.selectStmt(st.Query)
		}
		for _, row := range st.Rows {
			for _, e := range row {
				c.expr(e)
			}
		}
	case *ast.Update:
		c.writes[strings.ToLower(st.Table)] = true
		c.expr(st.Where)
		for _, a := range st.Set {
			c.expr(a.Value)
		}
	case *ast.Delete:
		c.writes[strings.ToLower(st.Table)] = true
		c.expr(st.Where)
	case *ast.CreateTable:
		c.writes[strings.ToLower(st.Name)] = true
	case *ast.DropTable:
		c.writes[strings.ToLower(st.Name)] = true
	case *ast.CreateIndex:
		c.writes[strings.ToLower(st.Table)] = true
	case *ast.Explain:
		c.selectStmt(st.Query)
	case *ast.Describe:
		c.reads[strings.ToLower(st.Table)] = true
	case *ast.SetNow:
		c.expr(st.Value)
	}
	// DropIndex, ShowTables and transaction control bind no table rows;
	// the engine guards them with the catalog lock alone (COMMIT and
	// ROLLBACK act on locks their transaction already holds).
	for t := range c.writes {
		delete(c.reads, t)
		writes = append(writes, t)
	}
	for t := range c.reads {
		reads = append(reads, t)
	}
	sort.Strings(reads)
	sort.Strings(writes)
	return reads, writes
}

// tableCollector accumulates table references from a statement tree.
type tableCollector struct {
	reads, writes map[string]bool
}

func (c *tableCollector) selectStmt(sel *ast.Select) {
	if sel == nil {
		return
	}
	for _, ref := range sel.From {
		if ref.Subquery != nil {
			c.selectStmt(ref.Subquery)
		} else {
			c.reads[strings.ToLower(ref.Table)] = true
		}
		c.expr(ref.On)
	}
	for _, item := range sel.Items {
		c.expr(item.Expr)
	}
	c.expr(sel.Where)
	for _, e := range sel.GroupBy {
		c.expr(e)
	}
	c.expr(sel.Having)
	for _, p := range sel.SetOps {
		c.selectStmt(p.Sel)
	}
	for _, o := range sel.OrderBy {
		c.expr(o.Expr)
	}
	c.expr(sel.Limit)
	c.expr(sel.Offset)
}

// expr walks an expression, descending into the subqueries walkExpr
// deliberately stops at (walkExpr still visits the subquery node itself,
// so the visitor recurses from there).
func (c *tableCollector) expr(e ast.Expr) {
	if e == nil {
		return
	}
	walkExpr(e, func(x ast.Expr) bool {
		switch sub := x.(type) {
		case *ast.Subquery:
			c.selectStmt(sub.Query)
		case *ast.Exists:
			c.selectStmt(sub.Subquery)
		case *ast.InList:
			c.selectStmt(sub.Subquery)
		}
		return true
	})
}
