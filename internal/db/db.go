// Package db implements the in-memory column store that backs the
// reproduction: typed integer columns, per-column statistics and the two
// indexes the exact executor runs on — dense join codes and value-sorted row
// permutations. A Database is an immutable snapshot once Freeze has been
// called — exactly the "immutable snapshot of the database" on which the
// paper trains and evaluates its models (§3.3).
package db

import (
	"cmp"
	"fmt"
	"slices"

	"crn/internal/schema"
)

// Value is the domain of every column. The paper's featurization handles
// numeric values (strings are future work, §9); all synthetic IMDb columns
// are integer-coded.
type Value = int64

// Table stores one relation column-wise.
type Table struct {
	Name string
	cols map[string][]Value
	// order preserves catalog column order for deterministic iteration.
	order []string
	rows  int
}

// NewTable creates an empty table with the given columns.
func NewTable(name string, columns []string) *Table {
	t := &Table{Name: name, cols: make(map[string][]Value, len(columns))}
	for _, c := range columns {
		t.cols[c] = nil
		t.order = append(t.order, c)
	}
	return t
}

// AppendRow appends one row; values must be given in catalog column order.
func (t *Table) AppendRow(values ...Value) error {
	if len(values) != len(t.order) {
		return fmt.Errorf("db: table %s has %d columns, got %d values", t.Name, len(t.order), len(values))
	}
	for i, c := range t.order {
		t.cols[c] = append(t.cols[c], values[i])
	}
	t.rows++
	return nil
}

// NumRows returns the row count.
func (t *Table) NumRows() int { return t.rows }

// Column returns the backing slice of the named column (shared, do not
// mutate) or nil if the column does not exist.
func (t *Table) Column(name string) []Value { return t.cols[name] }

// Columns returns the column names in catalog order.
func (t *Table) Columns() []string { return append([]string(nil), t.order...) }

// ColumnStats summarizes one column for featurization (value normalization
// needs min/max) and for the PostgreSQL-style estimator (n_distinct).
type ColumnStats struct {
	Min, Max  Value
	NDistinct int
	NumRows   int
}

// Normalize maps v into [0,1] using the column's min/max, the featurization
// rule of the paper (§3.2.1). Degenerate single-valued columns map to 0.
func (s ColumnStats) Normalize(v Value) float64 {
	if s.Max <= s.Min {
		return 0
	}
	x := float64(v-s.Min) / float64(s.Max-s.Min)
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// Database is a set of tables conforming to a schema, plus derived statistics
// and indexes. Build one with NewDatabase + AppendRow, then Freeze it.
type Database struct {
	Schema *schema.Schema
	tables map[string]*Table

	frozen bool
	stats  map[string]ColumnStats // "table.column" -> stats

	// Built by Freeze, indexed by schema column ordinal (Schema.ColumnID).
	cols [][]Value // the column's values (shared with its Table)
	// codes holds, for every column of a schema join edge, one dense join
	// code per row, drawn from one dictionary over all join-key values:
	// equal values carry equal codes on both sides of every edge, and codes
	// lie in [0, joinDomain). nil for every other column.
	codes      [][]int32
	joinDomain int
	// sorted holds, for every non-key column, its row ids in ascending value
	// order (ties by row id). nil for key columns.
	sorted [][]int32
}

// NewDatabase creates an empty database with one table per schema table.
func NewDatabase(s *schema.Schema) *Database {
	d := &Database{Schema: s, tables: make(map[string]*Table, len(s.Tables))}
	for _, td := range s.Tables {
		cols := make([]string, len(td.Columns))
		for i, c := range td.Columns {
			cols[i] = c.Name
		}
		d.tables[td.Name] = NewTable(td.Name, cols)
	}
	return d
}

// Table returns the named table, or nil if absent.
func (d *Database) Table(name string) *Table { return d.tables[name] }

// AppendRow appends a row to the named table. It fails on frozen databases.
func (d *Database) AppendRow(table string, values ...Value) error {
	if d.frozen {
		return fmt.Errorf("db: database is frozen")
	}
	t := d.tables[table]
	if t == nil {
		return fmt.Errorf("db: unknown table %q", table)
	}
	return t.AppendRow(values...)
}

// Freeze finalizes the database: computes per-column statistics, the join
// codes of every join-edge column and the sorted row permutation of every
// non-key column. After Freeze the database is immutable and safe for
// concurrent readers.
func (d *Database) Freeze() {
	if d.frozen {
		return
	}
	s := d.Schema
	n := s.NumColumns()
	d.stats = make(map[string]ColumnStats, n)
	d.cols = make([][]Value, n)
	d.codes = make([][]int32, n)
	d.sorted = make([][]int32, n)
	for id := range n {
		c := s.ColumnByID(id)
		col := d.tables[c.Table].Column(c.Name)
		perm := sortedRows(col)
		d.cols[id] = col
		d.stats[c.Qualified()] = computeStats(col, perm)
		if !c.Key {
			d.sorted[id] = perm
		}
	}
	dict := make(map[Value]int32)
	for _, e := range s.Joins {
		for _, ref := range [2]schema.ColumnRef{e.Left, e.Right} {
			id, _ := s.ColumnID(ref)
			if d.codes[id] != nil {
				continue
			}
			codes := make([]int32, len(d.cols[id]))
			for i, v := range d.cols[id] {
				code, ok := dict[v]
				if !ok {
					code = int32(len(dict))
					dict[v] = code
				}
				codes[i] = code
			}
			d.codes[id] = codes
		}
	}
	d.joinDomain = len(dict)
	d.frozen = true
}

// sortedRows returns col's row ids in ascending value order, ties by row id.
func sortedRows(col []Value) []int32 {
	perm := make([]int32, len(col))
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortFunc(perm, func(a, b int32) int {
		return cmp.Or(cmp.Compare(col[a], col[b]), cmp.Compare(a, b))
	})
	return perm
}

// Frozen reports whether Freeze has been called.
func (d *Database) Frozen() bool { return d.frozen }

// Stats returns the statistics of the referenced column. The second result
// is false for unknown columns or unfrozen databases.
func (d *Database) Stats(ref schema.ColumnRef) (ColumnStats, bool) {
	s, ok := d.stats[ref.String()]
	return s, ok
}

// The accessors below take a schema column ordinal (Schema.ColumnID), are
// valid on frozen databases only and return shared slices: do not mutate.

// ColumnByID returns the values of the column.
func (d *Database) ColumnByID(id int) []Value { return d.cols[id] }

// JoinCodes returns the column's dense join codes, one per row, or nil if the
// column is in no schema join edge. Two rows of any two join-edge columns
// carry equal codes exactly when they carry equal values.
func (d *Database) JoinCodes(id int) []int32 { return d.codes[id] }

// JoinDomain returns the number of distinct join codes: every code is below it.
func (d *Database) JoinDomain() int { return d.joinDomain }

// SortedRows returns the column's row ids in ascending value order (ties by
// row id), or nil for key columns.
func (d *Database) SortedRows(id int) []int32 { return d.sorted[id] }

// NumRows returns the row count of the named table (0 for unknown tables).
func (d *Database) NumRows(table string) int {
	if t := d.tables[table]; t != nil {
		return t.NumRows()
	}
	return 0
}

// TotalRows returns the summed row count across all tables.
func (d *Database) TotalRows() int {
	n := 0
	for _, t := range d.tables {
		n += t.NumRows()
	}
	return n
}

// computeStats summarizes col given its rows in ascending value order.
func computeStats(col []Value, perm []int32) ColumnStats {
	if len(col) == 0 {
		return ColumnStats{}
	}
	nd := 1
	for i := 1; i < len(perm); i++ {
		if col[perm[i]] != col[perm[i-1]] {
			nd++
		}
	}
	return ColumnStats{Min: col[perm[0]], Max: col[perm[len(perm)-1]], NDistinct: nd, NumRows: len(col)}
}

// SortedValues returns an ascending copy of the referenced column's values;
// used by the histogram builder of the PostgreSQL-style estimator.
func (d *Database) SortedValues(ref schema.ColumnRef) []Value {
	t := d.tables[ref.Table]
	if t == nil {
		return nil
	}
	col := t.Column(ref.Column)
	var perm []int32
	if id, ok := d.Schema.ColumnID(ref); ok && d.frozen {
		perm = d.sorted[id]
	}
	if perm == nil {
		perm = sortedRows(col)
	}
	out := make([]Value, len(perm))
	for i, r := range perm {
		out[i] = col[r]
	}
	return out
}
