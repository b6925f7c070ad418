package datagen

import (
	"math"
	"testing"

	"crn/internal/db"
	"crn/internal/schema"
)

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Titles = 500
	return cfg
}

func mustGenerate(t *testing.T, cfg Config) *db.Database {
	t.Helper()
	d, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestGenerateBasicShape(t *testing.T) {
	cfg := smallConfig()
	d := mustGenerate(t, cfg)
	if !d.Frozen() {
		t.Fatal("generated database should be frozen")
	}
	if got := d.NumRows(schema.Title); got != cfg.Titles {
		t.Errorf("title rows = %d, want %d", got, cfg.Titles)
	}
	// Satellite counts land near avg*titles (uniform [0,2avg] has mean avg).
	checks := []struct {
		table string
		avg   float64
	}{
		{schema.CastInfo, cfg.CastPerTitle},
		{schema.MovieInfo, cfg.InfoPerTitle},
	}
	for _, c := range checks {
		got := float64(d.NumRows(c.table))
		want := c.avg * float64(cfg.Titles)
		if got < want*0.7 || got > want*1.3 {
			t.Errorf("%s rows = %v, want about %v", c.table, got, want)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := mustGenerate(t, smallConfig())
	b := mustGenerate(t, smallConfig())
	for _, tab := range []string{schema.Title, schema.MovieCompany, schema.CastInfo} {
		ta, tb := a.Table(tab), b.Table(tab)
		if ta.NumRows() != tb.NumRows() {
			t.Fatalf("%s row count differs: %d vs %d", tab, ta.NumRows(), tb.NumRows())
		}
		for _, col := range ta.Columns() {
			ca, cb := ta.Column(col), tb.Column(col)
			for i := range ca {
				if ca[i] != cb[i] {
					t.Fatalf("%s.%s row %d differs: %d vs %d", tab, col, i, ca[i], cb[i])
				}
			}
		}
	}
}

func TestGenerateSeedChangesData(t *testing.T) {
	cfg2 := smallConfig()
	cfg2.Seed = 99
	a := mustGenerate(t, smallConfig())
	b := mustGenerate(t, cfg2)
	ca := a.Table(schema.Title).Column("production_year")
	cb := b.Table(schema.Title).Column("production_year")
	same := true
	for i := 0; i < min(len(ca), len(cb)); i++ {
		if ca[i] != cb[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds should produce different data")
	}
}

func TestDomains(t *testing.T) {
	d := mustGenerate(t, smallConfig())
	title := d.Table(schema.Title)
	for i, k := range title.Column("kind_id") {
		if k < 1 || k > 7 {
			t.Fatalf("kind_id[%d] = %d out of [1,7]", i, k)
		}
	}
	for i, y := range title.Column("production_year") {
		if y < 1880 || y > 2010 {
			t.Fatalf("production_year[%d] = %d out of range", i, y)
		}
	}
	kinds := title.Column("kind_id")
	for i, s := range title.Column("season_nr") {
		if kinds[i] != 2 && s != 0 {
			t.Fatalf("non-series title %d has season %d", i, s)
		}
	}
}

// The planted correlation: production_year (an era proxy) must be predictive
// of company_id block across the title⋈movie_companies join. We verify with
// a coarse mutual-information-style check: the company-id era block
// distribution differs sharply between early and late movies.
func TestJoinCrossingCorrelation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Titles = 2000
	d := mustGenerate(t, cfg)
	title := d.Table(schema.Title)
	years := title.Column("production_year")
	idx := make(map[int64][]int) // movie_id -> movie_companies rows
	for row, id := range d.Table(schema.MovieCompany).Column("movie_id") {
		idx[id] = append(idx[id], row)
	}
	companies := d.Table(schema.MovieCompany).Column("company_id")

	blockOf := func(companyID int64) int {
		// Era is the high-order part of the block index.
		return int((companyID - 1) / int64(cfg.CompaniesPerBlock) / numCountries)
	}
	var early, late [numEras]float64
	var nEarly, nLate float64
	for i, y := range years {
		movieID := int64(i + 1)
		for _, row := range idx[movieID] {
			b := blockOf(companies[row])
			if y < 1920 {
				early[b]++
				nEarly++
			} else if y > 1985 {
				late[b]++
				nLate++
			}
		}
	}
	if nEarly < 50 || nLate < 50 {
		t.Fatalf("not enough joined rows: early=%v late=%v", nEarly, nLate)
	}
	// L1 distance between the two conditional distributions should be large
	// (independent data would give ~0).
	var l1 float64
	for b := 0; b < numEras; b++ {
		l1 += math.Abs(early[b]/nEarly - late[b]/nLate)
	}
	if l1 < 0.5 {
		t.Errorf("join-crossing correlation too weak: L1=%v", l1)
	}
}

func TestGenerateValidation(t *testing.T) {
	bad := DefaultConfig()
	bad.Titles = 0
	if _, err := Generate(bad); err == nil {
		t.Error("Titles=0 should fail")
	}
	bad = DefaultConfig()
	bad.PersonsPerBlock = 0
	if _, err := Generate(bad); err == nil {
		t.Error("zero block size should fail")
	}
}

func TestSatelliteSkew(t *testing.T) {
	d := mustGenerate(t, smallConfig())
	// Zipf skew: the most frequent keyword should be much more common than
	// the median keyword.
	counts := map[int64]int{}
	for _, k := range d.Table(schema.MovieKeyword).Column("keyword_id") {
		counts[k]++
	}
	maxC := 0
	total := 0
	for _, c := range counts {
		if c > maxC {
			maxC = c
		}
		total += c
	}
	if len(counts) == 0 {
		t.Fatal("no keywords generated")
	}
	avg := float64(total) / float64(len(counts))
	if float64(maxC) < 3*avg {
		t.Errorf("keyword distribution not skewed: max=%d avg=%.1f", maxC, avg)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
