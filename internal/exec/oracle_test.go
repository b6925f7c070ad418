package exec

import (
	"fmt"

	"crn/internal/db"
	"crn/internal/query"
)

// mapCardinality is the executor's former evaluation, kept as a test oracle:
// a []bool filter mask over every row of each table, then the same bottom-up
// weight propagation with a map from join value to row combinations per join
// subtree. It is fast enough for the scale test, where bruteForce is not.
func mapCardinality(d *db.Database, q query.Query) (int64, error) {
	if len(q.Tables) == 0 {
		return 0, fmt.Errorf("exec: query has no tables")
	}
	masks := make(map[string][]bool, len(q.Tables))
	for _, t := range q.Tables {
		m, err := filterMask(d, t, q.PredsOn(t))
		if err != nil {
			return 0, err
		}
		masks[t] = m
	}
	total := int64(1)
	for _, comp := range q.Components() {
		if len(comp.Joins) != len(comp.Tables)-1 {
			return 0, fmt.Errorf("exec: cyclic join graph over %v not supported", comp.Tables)
		}
		c, err := componentCardinality(d, comp, masks)
		if err != nil {
			return 0, err
		}
		total *= c
		if total == 0 {
			return 0, nil
		}
	}
	return total, nil
}

// filterMask evaluates the conjunction of predicates on one table and
// returns a per-row boolean mask.
func filterMask(d *db.Database, table string, preds []query.Predicate) ([]bool, error) {
	t := d.Table(table)
	if t == nil {
		return nil, fmt.Errorf("exec: unknown table %q", table)
	}
	mask := make([]bool, t.NumRows())
	for i := range mask {
		mask[i] = true
	}
	for _, p := range preds {
		col := t.Column(p.Col.Column)
		if col == nil {
			return nil, fmt.Errorf("exec: unknown column %v", p.Col)
		}
		for i, v := range col {
			if mask[i] && !p.Matches(v) {
				mask[i] = false
			}
		}
	}
	return mask, nil
}

// componentCardinality evaluates one connected join tree.
func componentCardinality(d *db.Database, c query.Component, masks map[string][]bool) (int64, error) {
	if len(c.Tables) == 1 {
		var n int64
		for _, ok := range masks[c.Tables[0]] {
			if ok {
				n++
			}
		}
		return n, nil
	}
	type edgeTo struct {
		neighbor, myCol, nbrCol string
	}
	adj := make(map[string][]edgeTo, len(c.Tables))
	for _, j := range c.Joins {
		adj[j.Left.Table] = append(adj[j.Left.Table], edgeTo{j.Right.Table, j.Left.Column, j.Right.Column})
		adj[j.Right.Table] = append(adj[j.Right.Table], edgeTo{j.Left.Table, j.Right.Column, j.Left.Column})
	}
	type childW struct {
		col []db.Value
		w   map[db.Value]int64
	}
	// product returns, per masked row of table (entered from `from`), the
	// product of its child subtrees' weights, calling emit for non-zero ones.
	var weights func(table, from, linkCol string) (map[db.Value]int64, error)
	product := func(table, from string, emit func(row int, m int64)) error {
		t := d.Table(table)
		var children []childW
		for _, ed := range adj[table] {
			if ed.neighbor == from {
				continue
			}
			w, err := weights(ed.neighbor, table, ed.nbrCol)
			if err != nil {
				return err
			}
			children = append(children, childW{col: t.Column(ed.myCol), w: w})
		}
		for i, ok := range masks[table] {
			if !ok {
				continue
			}
			m := int64(1)
			for _, ch := range children {
				if m *= ch.w[ch.col[i]]; m == 0 {
					break
				}
			}
			if m != 0 {
				emit(i, m)
			}
		}
		return nil
	}
	weights = func(table, from, linkCol string) (map[db.Value]int64, error) {
		link := d.Table(table).Column(linkCol)
		if link == nil {
			return nil, fmt.Errorf("exec: unknown join column %s.%s", table, linkCol)
		}
		out := make(map[db.Value]int64)
		err := product(table, from, func(row int, m int64) { out[link[row]] += m })
		return out, err
	}
	var total int64
	err := product(c.Tables[0], "", func(_ int, m int64) { total += m })
	return total, err
}
