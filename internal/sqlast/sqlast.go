// Package sqlast represents the SQL statements the translator produces:
// sorted outer-union queries in the style of Shanmugasundaram et al.
// [21] — a UNION ALL of select branches ordered by the context ID — with
// conjunctive predicates, EXISTS semi-joins (alone, or OR-ed with the
// columns of a repetition-split leaf), and equi-joins. A renderer
// produces SQL text for display and logging; execution interprets the
// AST directly.
package sqlast

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/rel"
)

// CmpOp is a SQL comparison operator.
type CmpOp int

const (
	OpEq CmpOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

// String returns the SQL spelling of the operator.
func (op CmpOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpNe:
		return "<>"
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	}
	return "?"
}

// Matches evaluates "a op b" under the operator.
func (op CmpOp) Matches(cmp int) bool {
	switch op {
	case OpEq:
		return cmp == 0
	case OpNe:
		return cmp != 0
	case OpLt:
		return cmp < 0
	case OpLe:
		return cmp <= 0
	case OpGt:
		return cmp > 0
	case OpGe:
		return cmp >= 0
	}
	return false
}

// ColRef names a column of a table.
type ColRef struct {
	Table  string
	Column string
}

func (c ColRef) String() string { return c.Table + "." + c.Column }

// SelectItem is one output expression: a column reference or a NULL
// placeholder (outer-union slots), with an output name.
type SelectItem struct {
	// Col is the source column; nil renders NULL.
	Col *ColRef
	// As is the output column name.
	As string
}

func (s SelectItem) String() string {
	if s.Col == nil {
		return "NULL AS " + s.As
	}
	if s.Col.Column == s.As {
		return s.Col.String()
	}
	return s.Col.String() + " AS " + s.As
}

// PredKind discriminates predicate forms.
type PredKind int

const (
	// PredCompare is "col op literal".
	PredCompare PredKind = iota
	// PredJoin is "left = right" across tables.
	PredJoin
	// PredExists is "EXISTS (SELECT 1 FROM t WHERE t.joinCol = outer
	// AND t.col op lit)" — semi-join for selections on set-valued
	// elements stored in a child relation.
	PredExists
	// PredOrExists is "(col1 op lit OR ... OR EXISTS(...))" over
	// columns of the outer column's table — selections on
	// repetition-split elements match either an inlined occurrence
	// column or an overflow row.
	PredOrExists
)

// Pred is a conjunct of a WHERE clause.
type Pred struct {
	Kind PredKind
	// PredCompare / PredExists / PredOrExists comparison:
	Op    CmpOp
	Value rel.Value
	// PredCompare column; PredOrExists occurrence columns:
	Col  ColRef
	Cols []ColRef
	// PredJoin columns:
	Left, Right ColRef
	// PredExists inner table and columns:
	Table    string
	JoinCol  string // inner column equated with OuterCol
	OuterCol ColRef
	InnerCol string // inner column compared with Value
}

// String renders the predicate as SQL.
func (p Pred) String() string {
	switch p.Kind {
	case PredCompare:
		return fmt.Sprintf("%s %s %s", p.Col, p.Op, p.Value.SQLLiteral())
	case PredJoin:
		return fmt.Sprintf("%s = %s", p.Left, p.Right)
	case PredExists:
		return p.existsSQL()
	case PredOrExists:
		parts := make([]string, 0, len(p.Cols)+1)
		for _, c := range p.Cols {
			parts = append(parts, fmt.Sprintf("%s %s %s", c, p.Op, p.Value.SQLLiteral()))
		}
		parts = append(parts, p.existsSQL())
		return "(" + strings.Join(parts, " OR ") + ")"
	}
	return "?"
}

func (p Pred) existsSQL() string {
	return fmt.Sprintf("EXISTS (SELECT 1 FROM %s WHERE %s.%s = %s AND %s.%s %s %s)",
		p.Table, p.Table, p.JoinCol, p.OuterCol, p.Table, p.InnerCol, p.Op, p.Value.SQLLiteral())
}

// Select is one branch of a sorted outer-union query.
type Select struct {
	// Items are the output expressions; every branch of a Query has the
	// same output names in the same order.
	Items []SelectItem
	// From lists the base tables referenced (joined via PredJoin
	// conjuncts in Where).
	From []string
	// Where is a conjunction of predicates.
	Where []Pred
}

// ErrBranchShape is wrapped by every refusal of CheckShape.
var ErrBranchShape = errors.New("sqlast: a branch reads one table, or joins two by one equi-join")

// CheckShape refuses, wrapping ErrBranchShape, a branch of any shape but
// the two a sorted outer union's branches take: one FROM table and no
// join predicate (a host relation alone), or two distinct FROM tables
// and exactly one join predicate, which equates a column of one with a
// column of the other (a host relation and one child relation). The
// optimizer and the executors plan and run only these.
func (s *Select) CheckShape() error {
	joins := 0
	var join *Pred
	for i := range s.Where {
		if s.Where[i].Kind == PredJoin {
			joins++
			join = &s.Where[i]
		}
	}
	switch {
	case len(s.From) == 1 && joins == 0:
		return nil
	case len(s.From) == 2 && joins == 1 && s.From[0] != s.From[1] &&
		(join.Left.Table == s.From[0] && join.Right.Table == s.From[1] ||
			join.Left.Table == s.From[1] && join.Right.Table == s.From[0]):
		return nil
	}
	return fmt.Errorf("%w: %d FROM tables and %d join predicates in %s", ErrBranchShape, len(s.From), joins, s.SQL())
}

// SQL renders the branch.
func (s *Select) SQL() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	for i, it := range s.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(it.String())
	}
	b.WriteString(" FROM ")
	b.WriteString(strings.Join(s.From, ", "))
	if len(s.Where) > 0 {
		b.WriteString(" WHERE ")
		for i, p := range s.Where {
			if i > 0 {
				b.WriteString(" AND ")
			}
			b.WriteString(p.String())
		}
	}
	return b.String()
}

// Tables returns the set of tables the branch touches, including
// EXISTS inner tables.
func (s *Select) Tables() []string {
	seen := make(map[string]bool)
	var out []string
	add := func(t string) {
		if t != "" && !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	for _, t := range s.From {
		add(t)
	}
	for _, p := range s.Where {
		if p.Kind == PredExists || p.Kind == PredOrExists {
			add(p.Table)
		}
	}
	return out
}

// ColumnsOf returns the columns of the given table referenced anywhere
// in the branch (output, predicates, joins), sorted, unique and never
// nil.
func (s *Select) ColumnsOf(table string) []string {
	// A branch names a handful of columns: collect them deduplicated by
	// scan in a stack buffer, then copy them out at their exact count.
	var buf [16]string
	seen := buf[:0]
	add := func(column string) {
		if column != "" && !slices.Contains(seen, column) {
			seen = append(seen, column)
		}
	}
	addCol := func(c ColRef) {
		if c.Table == table {
			add(c.Column)
		}
	}
	for _, it := range s.Items {
		if it.Col != nil {
			addCol(*it.Col)
		}
	}
	for i := range s.Where {
		switch p := &s.Where[i]; p.Kind {
		case PredCompare:
			addCol(p.Col)
		case PredJoin:
			addCol(p.Left)
			addCol(p.Right)
		case PredExists, PredOrExists:
			addCol(p.OuterCol)
			for _, c := range p.Cols {
				addCol(c)
			}
			if p.Table == table {
				add(p.JoinCol)
				add(p.InnerCol)
			}
		}
	}
	sort.Strings(seen)
	return append(make([]string, 0, len(seen)), seen...)
}

// Query is a sorted outer-union query: UNION ALL over branches, ordered
// by the named output column.
type Query struct {
	Branches []*Select
	// OrderBy is the output column name the union is ordered by
	// (typically the context element's ID); empty means unordered.
	OrderBy string
}

// SQL renders the full statement.
func (q *Query) SQL() string {
	parts := make([]string, len(q.Branches))
	for i, s := range q.Branches {
		parts[i] = s.SQL()
	}
	out := strings.Join(parts, "\nUNION ALL\n")
	if q.OrderBy != "" {
		out += "\nORDER BY " + q.OrderBy
	}
	return out
}

// Tables returns the set of tables referenced by any branch, sorted.
func (q *Query) Tables() []string {
	seen := make(map[string]bool)
	for _, s := range q.Branches {
		for _, t := range s.Tables() {
			seen[t] = true
		}
	}
	out := make([]string, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// OutputColumns returns the output column names (from the first
// branch; all branches are union-compatible). A query of no branch has
// none: the list is empty, not nil.
func (q *Query) OutputColumns() []string {
	if len(q.Branches) == 0 {
		return []string{}
	}
	out := make([]string, len(q.Branches[0].Items))
	for i, it := range q.Branches[0].Items {
		out[i] = it.As
	}
	return out
}

// Validate checks union compatibility across branches and that every
// column reference names a table in scope. A query with no branch is
// valid: it returns no rows.
func (q *Query) Validate() error {
	names := q.OutputColumns()
	for bi, s := range q.Branches {
		if len(s.Items) != len(names) {
			return fmt.Errorf("sqlast: branch %d has %d items, want %d", bi, len(s.Items), len(names))
		}
		for i, it := range s.Items {
			if it.As != names[i] {
				return fmt.Errorf("sqlast: branch %d item %d named %q, want %q", bi, i, it.As, names[i])
			}
		}
		inScope := make(map[string]bool)
		for _, t := range s.From {
			inScope[t] = true
		}
		check := func(c ColRef) error {
			if !inScope[c.Table] {
				return fmt.Errorf("sqlast: branch %d references %s which is not in FROM", bi, c)
			}
			return nil
		}
		for _, it := range s.Items {
			if it.Col != nil {
				if err := check(*it.Col); err != nil {
					return err
				}
			}
		}
		for _, p := range s.Where {
			var err error
			switch p.Kind {
			case PredCompare:
				err = check(p.Col)
			case PredJoin:
				if err = check(p.Left); err == nil {
					err = check(p.Right)
				}
			case PredExists, PredOrExists:
				err = check(p.OuterCol)
				for _, c := range p.Cols {
					if err == nil {
						err = check(c)
					}
				}
				if err == nil && p.Table == "" {
					err = fmt.Errorf("sqlast: branch %d EXISTS without table", bi)
				}
			}
			if err != nil {
				return err
			}
		}
		if q.OrderBy != "" {
			found := false
			for _, n := range names {
				if n == q.OrderBy {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("sqlast: ORDER BY %s is not an output column", q.OrderBy)
			}
		}
	}
	return nil
}
