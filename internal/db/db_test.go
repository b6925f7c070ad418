package db

import (
	"slices"
	"testing"
	"testing/quick"

	"crn/internal/schema"
)

func testSchema() *schema.Schema {
	return schema.New(
		[]schema.TableDef{
			{Name: "t", Columns: []schema.Column{
				{Table: "t", Name: "id", Key: true},
				{Table: "t", Name: "a"},
			}},
			{Name: "c", Columns: []schema.Column{
				{Table: "c", Name: "tid", Key: true},
				{Table: "c", Name: "b"},
			}},
		},
		[]schema.JoinEdge{{
			Left:  schema.ColumnRef{Table: "t", Column: "id"},
			Right: schema.ColumnRef{Table: "c", Column: "tid"},
		}},
	)
}

func TestAppendAndFreeze(t *testing.T) {
	d := NewDatabase(testSchema())
	for i := int64(0); i < 10; i++ {
		if err := d.AppendRow("t", i, i%3); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < 20; i++ {
		if err := d.AppendRow("c", i%10, i); err != nil {
			t.Fatal(err)
		}
	}
	if d.Frozen() {
		t.Fatal("database frozen before Freeze")
	}
	d.Freeze()
	if !d.Frozen() {
		t.Fatal("database not frozen after Freeze")
	}
	if err := d.AppendRow("t", 99, 99); err == nil {
		t.Error("AppendRow after Freeze should fail")
	}
	if got := d.NumRows("t"); got != 10 {
		t.Errorf("NumRows(t) = %d, want 10", got)
	}
	if got := d.TotalRows(); got != 30 {
		t.Errorf("TotalRows = %d, want 30", got)
	}
}

func TestAppendRowErrors(t *testing.T) {
	d := NewDatabase(testSchema())
	if err := d.AppendRow("nope", 1); err == nil {
		t.Error("unknown table should fail")
	}
	if err := d.AppendRow("t", 1); err == nil {
		t.Error("wrong arity should fail")
	}
}

func TestStats(t *testing.T) {
	d := NewDatabase(testSchema())
	vals := []int64{5, 1, 3, 3, 9}
	for i, v := range vals {
		if err := d.AppendRow("t", int64(i), v); err != nil {
			t.Fatal(err)
		}
	}
	d.Freeze()
	s, ok := d.Stats(schema.ColumnRef{Table: "t", Column: "a"})
	if !ok {
		t.Fatal("stats missing")
	}
	if s.Min != 1 || s.Max != 9 || s.NDistinct != 4 || s.NumRows != 5 {
		t.Errorf("stats = %+v", s)
	}
	if _, ok := d.Stats(schema.ColumnRef{Table: "t", Column: "zzz"}); ok {
		t.Error("unknown column should have no stats")
	}
}

func TestNormalize(t *testing.T) {
	s := ColumnStats{Min: 10, Max: 20}
	cases := []struct {
		v    int64
		want float64
	}{{10, 0}, {20, 1}, {15, 0.5}, {5, 0}, {25, 1}}
	for _, c := range cases {
		if got := s.Normalize(c.v); got != c.want {
			t.Errorf("Normalize(%d) = %v, want %v", c.v, got, c.want)
		}
	}
	deg := ColumnStats{Min: 7, Max: 7}
	if got := deg.Normalize(7); got != 0 {
		t.Errorf("degenerate Normalize = %v, want 0", got)
	}
}

func TestNormalizeInUnitIntervalProperty(t *testing.T) {
	f := func(min, max, v int64) bool {
		if min > max {
			min, max = max, min
		}
		s := ColumnStats{Min: min, Max: max}
		x := s.Normalize(v)
		return x >= 0 && x <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestKeyIndex checks the join-code index: both sides of the join edge share
// one code dictionary, so equal values carry equal codes across the edge.
func TestKeyIndex(t *testing.T) {
	d := NewDatabase(testSchema())
	for _, id := range []int64{7, 3, 5} {
		if err := d.AppendRow("t", id, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < 6; i++ {
		if err := d.AppendRow("c", []int64{3, 9}[i%2], i); err != nil {
			t.Fatal(err)
		}
	}
	d.Freeze()
	s := d.Schema
	tid, _ := s.ColumnID(schema.ColumnRef{Table: "t", Column: "id"})
	ctid, _ := s.ColumnID(schema.ColumnRef{Table: "c", Column: "tid"})
	if got := d.JoinDomain(); got != 4 {
		t.Errorf("JoinDomain = %d, want 4 distinct join values (3, 5, 7, 9)", got)
	}
	// A join map built locally from the codes: code -> rows of c.tid.
	idx := make(map[int32][]int)
	for row, code := range d.JoinCodes(ctid) {
		idx[code] = append(idx[code], row)
	}
	if len(idx) != 2 {
		t.Fatalf("c.tid codes form %d buckets, want 2", len(idx))
	}
	for code, rows := range idx {
		if len(rows) != 3 {
			t.Errorf("code %d has %d rows, want 3", code, len(rows))
		}
	}
	// Codes agree with values across the edge, and lie below the domain.
	cols := []int{tid, ctid}
	for _, a := range cols {
		for i, ca := range d.JoinCodes(a) {
			if int(ca) >= d.JoinDomain() || ca < 0 {
				t.Fatalf("code %d outside [0,%d)", ca, d.JoinDomain())
			}
			for _, b := range cols {
				for j, cb := range d.JoinCodes(b) {
					if (ca == cb) != (d.ColumnByID(a)[i] == d.ColumnByID(b)[j]) {
						t.Fatalf("codes %d,%d disagree with values %d,%d", ca, cb, d.ColumnByID(a)[i], d.ColumnByID(b)[j])
					}
				}
			}
		}
	}
	// Columns in no join edge have no codes.
	b, _ := s.ColumnID(schema.ColumnRef{Table: "c", Column: "b"})
	if d.JoinCodes(b) != nil {
		t.Error("non-join column should have no join codes")
	}
}

func TestSortedValues(t *testing.T) {
	d := NewDatabase(testSchema())
	for _, v := range []int64{3, 1, 2} {
		if err := d.AppendRow("t", v, v*10); err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range []int64{5, -1, 5, 2} {
		if err := d.AppendRow("c", 1, b); err != nil {
			t.Fatal(err)
		}
	}
	d.Freeze()
	got := d.SortedValues(schema.ColumnRef{Table: "t", Column: "a"})
	want := []int64{10, 20, 30}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SortedValues = %v, want %v", got, want)
		}
	}
	// Sorted rows: ascending values, ties by row id; key columns have none.
	cb, _ := d.Schema.ColumnID(schema.ColumnRef{Table: "c", Column: "b"})
	if got, want := d.SortedRows(cb), []int32{1, 3, 0, 2}; !slices.Equal(got, want) {
		t.Errorf("SortedRows(c.b) = %v, want %v", got, want)
	}
	if id, _ := d.Schema.ColumnID(schema.ColumnRef{Table: "t", Column: "id"}); d.SortedRows(id) != nil {
		t.Error("key column should have no sorted rows")
	}
	if got := d.SortedValues(schema.ColumnRef{Table: "t", Column: "id"}); !slices.Equal(got, []int64{1, 2, 3}) {
		t.Errorf("SortedValues(t.id) = %v, want [1 2 3]", got)
	}
	if d.SortedValues(schema.ColumnRef{Table: "zzz", Column: "a"}) != nil {
		t.Error("unknown table should return nil")
	}
}

func TestFreezeIdempotent(t *testing.T) {
	d := NewDatabase(testSchema())
	if err := d.AppendRow("t", 1, 2); err != nil {
		t.Fatal(err)
	}
	d.Freeze()
	d.Freeze() // must not panic or reset
	if !d.Frozen() {
		t.Error("database should stay frozen")
	}
}

func TestEmptyColumnStats(t *testing.T) {
	d := NewDatabase(testSchema())
	d.Freeze()
	s, ok := d.Stats(schema.ColumnRef{Table: "t", Column: "a"})
	if !ok {
		t.Fatal("stats should exist for empty column")
	}
	if s.NumRows != 0 || s.NDistinct != 0 {
		t.Errorf("empty stats = %+v", s)
	}
}
