package sqlparse

// The front end as it was before the one-pass scanner and the rank-based
// query.New replaced it, kept as the reference oracle: the token-slice lexer
// and recursive-descent parser verbatim (only parse's result type changed),
// and query.New's validation, string-order canonicalisation, rendering and
// signature — with the schema lookup maps it used — rebuilt here from exported
// API only, so nothing below shares code with what it checks.
// TestParseMatchesOracle, TestNewMatchesOracle and FuzzParse hold the new
// front end to the same accept set, canonical queries and error messages.

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"unicode"

	"crn/internal/query"
	"crn/internal/schema"
)

// oracleQuery is everything observable about a canonical query.Query.
type oracleQuery struct {
	Tables  []string
	Joins   []query.Join
	Preds   []query.Predicate
	SQL     string
	FROMKey string
	Sig     query.Signature
}

// oracleParseWith is the old ParseWith.
func oracleParseWith(s *schema.Schema, dict StringInterner, sql string) (oracleQuery, error) {
	p := &parser{toks: lex(sql), dict: dict}
	q, err := p.parse(s)
	if err != nil {
		return oracleQuery{}, fmt.Errorf("sqlparse: %w: %w", ErrDialect, err)
	}
	return q, nil
}

type tokKind int

const (
	tokIdent tokKind = iota
	tokNumber
	tokString // 'quoted literal'
	tokSymbol // * , . ; < = >
	tokEOF
)

type token struct {
	kind tokKind
	text string
	pos  int
}

func lex(input string) []token {
	var toks []token
	i := 0
	for i < len(input) {
		c := rune(input[i])
		switch {
		case unicode.IsSpace(c):
			i++
		case c == '*' || c == ',' || c == '.' || c == ';' || c == '<' || c == '=' || c == '>':
			toks = append(toks, token{tokSymbol, string(c), i})
			i++
		case c == '\'':
			j := i + 1
			for j < len(input) && input[j] != '\'' {
				j++
			}
			if j >= len(input) {
				toks = append(toks, token{tokSymbol, "'", i}) // unterminated
				i++
				continue
			}
			toks = append(toks, token{tokString, input[i+1 : j], i})
			i = j + 1
		case c == '-' || unicode.IsDigit(c):
			j := i + 1
			for j < len(input) && unicode.IsDigit(rune(input[j])) {
				j++
			}
			toks = append(toks, token{tokNumber, input[i:j], i})
			i = j
		case unicode.IsLetter(c) || c == '_':
			j := i + 1
			for j < len(input) && (unicode.IsLetter(rune(input[j])) || unicode.IsDigit(rune(input[j])) || input[j] == '_') {
				j++
			}
			toks = append(toks, token{tokIdent, input[i:j], i})
			i = j
		default:
			toks = append(toks, token{tokSymbol, string(c), i})
			i++
		}
	}
	toks = append(toks, token{tokEOF, "", len(input)})
	return toks
}

type parser struct {
	toks []token
	pos  int
	dict StringInterner
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) expectKeyword(kw string) error {
	t := p.next()
	if t.kind != tokIdent || !strings.EqualFold(t.text, kw) {
		return fmt.Errorf("expected %s at position %d, got %q", kw, t.pos, t.text)
	}
	return nil
}

func (p *parser) expectSymbol(sym string) error {
	t := p.next()
	if t.kind != tokSymbol || t.text != sym {
		return fmt.Errorf("expected %q at position %d, got %q", sym, t.pos, t.text)
	}
	return nil
}

func (p *parser) parse(s *schema.Schema) (oracleQuery, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return oracleQuery{}, err
	}
	if err := p.expectSymbol("*"); err != nil {
		return oracleQuery{}, fmt.Errorf("only SELECT * queries are supported: %w", err)
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return oracleQuery{}, err
	}
	tables, err := p.tableList()
	if err != nil {
		return oracleQuery{}, err
	}
	var joins []query.Join
	var preds []query.Predicate
	if t := p.peek(); t.kind == tokIdent && strings.EqualFold(t.text, "WHERE") {
		p.next()
		joins, preds, err = p.whereClause()
		if err != nil {
			return oracleQuery{}, err
		}
	}
	if t := p.peek(); t.kind == tokSymbol && t.text == ";" {
		p.next()
	}
	if t := p.peek(); t.kind != tokEOF {
		return oracleQuery{}, fmt.Errorf("unexpected trailing input %q at position %d", t.text, t.pos)
	}
	return oracleNew(s, tables, joins, preds)
}

func (p *parser) tableList() ([]string, error) {
	var tables []string
	for {
		t := p.next()
		if t.kind != tokIdent {
			return nil, fmt.Errorf("expected table name at position %d, got %q", t.pos, t.text)
		}
		tables = append(tables, strings.ToLower(t.text))
		if nxt := p.peek(); nxt.kind == tokSymbol && nxt.text == "," {
			p.next()
			continue
		}
		return tables, nil
	}
}

func (p *parser) whereClause() ([]query.Join, []query.Predicate, error) {
	var joins []query.Join
	var preds []query.Predicate
	for {
		if t := p.peek(); t.kind == tokIdent && strings.EqualFold(t.text, "TRUE") {
			p.next()
		} else {
			j, pr, isJoin, err := p.condition()
			if err != nil {
				return nil, nil, err
			}
			if isJoin {
				joins = append(joins, j)
			} else {
				preds = append(preds, pr)
			}
		}
		if t := p.peek(); t.kind == tokIdent && strings.EqualFold(t.text, "AND") {
			p.next()
			continue
		}
		return joins, preds, nil
	}
}

func (p *parser) condition() (query.Join, query.Predicate, bool, error) {
	left, err := p.columnRef()
	if err != nil {
		return query.Join{}, query.Predicate{}, false, err
	}
	opTok := p.next()
	if opTok.kind != tokSymbol || (opTok.text != "<" && opTok.text != "=" && opTok.text != ">") {
		return query.Join{}, query.Predicate{}, false,
			fmt.Errorf("expected operator <,=,> at position %d, got %q", opTok.pos, opTok.text)
	}
	rhs := p.peek()
	if rhs.kind == tokNumber {
		p.next()
		v, err := strconv.ParseInt(rhs.text, 10, 64)
		if err != nil {
			return query.Join{}, query.Predicate{}, false,
				fmt.Errorf("bad integer literal %q at position %d", rhs.text, rhs.pos)
		}
		return query.Join{}, query.Predicate{Col: left, Op: opTok.text, Val: v}, false, nil
	}
	if rhs.kind == tokString {
		p.next()
		if p.dict == nil {
			return query.Join{}, query.Predicate{}, false,
				fmt.Errorf("string literal %q at position %d requires a dictionary (use ParseWith)", rhs.text, rhs.pos)
		}
		if opTok.text != "=" {
			return query.Join{}, query.Predicate{}, false,
				fmt.Errorf("string predicates support only = at position %d (interned codes carry no order)", opTok.pos)
		}
		code, ok := p.dict.Code(left, rhs.text)
		if !ok {
			code = 0 // absent literal: matches nothing
		}
		return query.Join{}, query.Predicate{Col: left, Op: opTok.text, Val: code}, false, nil
	}
	right, err := p.columnRef()
	if err != nil {
		return query.Join{}, query.Predicate{}, false, err
	}
	if opTok.text != "=" {
		return query.Join{}, query.Predicate{}, false,
			fmt.Errorf("joins must use = at position %d", opTok.pos)
	}
	return query.Join{Left: left, Right: right}, query.Predicate{}, true, nil
}

func (p *parser) columnRef() (schema.ColumnRef, error) {
	t := p.next()
	if t.kind != tokIdent {
		return schema.ColumnRef{}, fmt.Errorf("expected column reference at position %d, got %q", t.pos, t.text)
	}
	if err := p.expectSymbol("."); err != nil {
		return schema.ColumnRef{}, fmt.Errorf("column references must be table-qualified: %w", err)
	}
	c := p.next()
	if c.kind != tokIdent {
		return schema.ColumnRef{}, fmt.Errorf("expected column name at position %d, got %q", c.pos, c.text)
	}
	return schema.ColumnRef{Table: strings.ToLower(t.text), Column: strings.ToLower(c.text)}, nil
}

// --- the old query.New ---------------------------------------------------------

// oracleIndex is the old schema.New lookup maps.
type oracleIndex struct {
	tables  map[string]bool
	columns map[string]bool // "table.column"
	joins   map[string]bool // schema.EdgeKey
}

// oracleIndexes memoizes oracleIndexOf per schema: the fuzzer calls it per input.
var oracleIndexes sync.Map // *schema.Schema -> oracleIndex

func oracleIndexOf(s *schema.Schema) oracleIndex {
	if ix, ok := oracleIndexes.Load(s); ok {
		return ix.(oracleIndex)
	}
	ix := oracleIndex{tables: map[string]bool{}, columns: map[string]bool{}, joins: map[string]bool{}}
	for _, t := range s.Tables {
		ix.tables[t.Name] = true
		for _, c := range t.Columns {
			ix.columns[c.Qualified()] = true
		}
	}
	for _, j := range s.Joins {
		ix.joins[schema.EdgeKey(j.Left, j.Right)] = true
	}
	oracleIndexes.Store(s, ix)
	return ix
}

func oracleJoinKey(j query.Join) string { return schema.EdgeKey(j.Left, j.Right) }

func oracleNew(s *schema.Schema, tables []string, joins []query.Join, preds []query.Predicate) (oracleQuery, error) {
	ix := oracleIndexOf(s)
	q := oracleQuery{
		Tables: append([]string(nil), tables...),
		Joins:  make([]query.Join, len(joins)),
		Preds:  append([]query.Predicate(nil), preds...),
	}
	sort.Strings(q.Tables)
	for i := 1; i < len(q.Tables); i++ {
		if q.Tables[i] == q.Tables[i-1] {
			return oracleQuery{}, fmt.Errorf("query: duplicate table %q", q.Tables[i])
		}
	}
	inFrom := make(map[string]bool, len(q.Tables))
	for _, t := range q.Tables {
		if !ix.tables[t] {
			return oracleQuery{}, fmt.Errorf("query: unknown table %q", t)
		}
		inFrom[t] = true
	}
	for i, j := range joins {
		cj := j.Canonical()
		if !ix.joins[oracleJoinKey(cj)] {
			return oracleQuery{}, fmt.Errorf("query: %v is not a join edge of the schema", cj)
		}
		if !inFrom[cj.Left.Table] || !inFrom[cj.Right.Table] {
			return oracleQuery{}, fmt.Errorf("query: join %v references table outside FROM clause", cj)
		}
		q.Joins[i] = cj
	}
	sort.Slice(q.Joins, func(a, b int) bool { return oracleJoinKey(q.Joins[a]) < oracleJoinKey(q.Joins[b]) })
	for i := 1; i < len(q.Joins); i++ {
		if q.Joins[i] == q.Joins[i-1] {
			return oracleQuery{}, fmt.Errorf("query: duplicate join %v", q.Joins[i])
		}
	}
	for _, p := range q.Preds {
		if !ix.columns[p.Col.String()] {
			return oracleQuery{}, fmt.Errorf("query: unknown column %v", p.Col)
		}
		if !inFrom[p.Col.Table] {
			return oracleQuery{}, fmt.Errorf("query: predicate on %v references table outside FROM clause", p.Col)
		}
		if p.Op != schema.OpLT && p.Op != schema.OpEQ && p.Op != schema.OpGT {
			return oracleQuery{}, fmt.Errorf("query: unsupported operator %q", p.Op)
		}
	}
	sort.Slice(q.Preds, func(a, b int) bool {
		pa, pb := q.Preds[a], q.Preds[b]
		if pa.Col.String() != pb.Col.String() {
			return pa.Col.String() < pb.Col.String()
		}
		if pa.Op != pb.Op {
			return pa.Op < pb.Op
		}
		return pa.Val < pb.Val
	})
	if len(q.Preds) >= 2 {
		out := q.Preds[:1]
		for _, p := range q.Preds[1:] {
			if p != out[len(out)-1] {
				out = append(out, p)
			}
		}
		q.Preds = out
	}
	q.SQL = oracleRender(q)
	q.FROMKey = strings.Join(q.Tables, ",")
	q.Sig = oracleSignature(q)
	return q, nil
}

func oracleRender(q oracleQuery) string {
	var b strings.Builder
	b.WriteString("SELECT * FROM ")
	b.WriteString(strings.Join(q.Tables, ", "))
	var where []string
	for _, j := range q.Joins {
		where = append(where, j.Left.String()+" = "+j.Right.String())
	}
	for _, p := range q.Preds {
		where = append(where, p.Col.String()+" "+p.Op+" "+strconv.FormatInt(p.Val, 10))
	}
	if len(where) > 0 {
		b.WriteString(" WHERE ")
		b.WriteString(strings.Join(where, " AND "))
	} else {
		b.WriteString(" WHERE TRUE")
	}
	return b.String()
}

func oracleHash(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

func oracleSignature(q oracleQuery) query.Signature {
	var sig query.Signature
	for _, j := range q.Joins {
		sig.Joins |= 1 << (oracleHash(schema.EdgeKey(j.Left, j.Right)) & 63)
	}
	for _, p := range q.Preds {
		col := oracleHash(p.Col.String())
		bit := uint64(1) << (col & 63)
		sig.Cols |= bit
		class := map[string]int{schema.OpLT: 0, schema.OpEQ: 1, schema.OpGT: 2}[p.Op]
		sig.Ops[class] |= bit
		sig.Ranges = oracleTightenRange(sig.Ranges, col, p)
	}
	sort.SliceStable(sig.Ranges, func(a, b int) bool { return sig.Ranges[a].Col < sig.Ranges[b].Col })
	return sig
}

func oracleTightenRange(ranges []query.ColRange, col uint64, p query.Predicate) []query.ColRange {
	var r *query.ColRange
	for i := range ranges {
		if ranges[i].Col == col {
			r = &ranges[i]
			break
		}
	}
	if r == nil {
		ranges = append(ranges, query.ColRange{Col: col, Lo: math.MinInt64, Hi: math.MaxInt64})
		r = &ranges[len(ranges)-1]
	}
	// The values p admits, lo..hi: a side at an int64 limit bounds nothing,
	// and a literal that leaves nothing (< MinInt64, > MaxInt64) contributes
	// the empty 1..0.
	var lo, hi int64
	switch {
	case p.Op == schema.OpLT && p.Val == math.MinInt64, p.Op == schema.OpGT && p.Val == math.MaxInt64:
		lo, hi = 1, 0
	case p.Op == schema.OpLT:
		lo, hi = math.MinInt64, p.Val-1
	case p.Op == schema.OpGT:
		lo, hi = p.Val+1, math.MaxInt64
	default:
		lo, hi = p.Val, p.Val
	}
	if lo > r.Lo {
		r.Lo = lo
	}
	if hi < r.Hi {
		r.Hi = hi
	}
	return ranges
}
