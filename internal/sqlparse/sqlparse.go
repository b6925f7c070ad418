// Package sqlparse parses the conjunctive SQL dialect of the paper into
// query.Query values:
//
//	SELECT * FROM t1, t2 WHERE t1.id = t2.movie_id AND t1.col > 42
//	SELECT * FROM t WHERE TRUE
//
// The dialect covers exactly the paper's query class: SELECT * projections,
// comma-separated FROM lists, and WHERE clauses that are conjunctions of
// equi-joins (column = column) and column predicates (column {<,=,>}
// integer). Keywords are case-insensitive; a trailing semicolon is allowed.
//
// Parsing is one pass over the input string: a cursor scans one token of
// lookahead at a time (no token slice, byte classes from a 256-entry table),
// identifiers are resolved to the schema's own name strings as they are read,
// and query.New validates and canonicalises the clauses collected on the
// scanner's stack. A well-formed query costs a handful of allocations — the
// canonical query's own slices, key and signature — and none of them retains
// the input text. The accept set and every error message are those of the
// token-slice parser this replaced, which the tests keep as their oracle.
package sqlparse

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"crn/internal/query"
	"crn/internal/schema"
)

// ErrDialect is the sentinel wrapped by every parse failure: the input is
// outside the supported conjunctive dialect (or malformed). Callers match it
// with errors.Is to distinguish bad query text from system errors.
var ErrDialect = errors.New("unsupported SQL dialect")

// StringInterner resolves string literals to the integer codes stored in
// the database (the §9 strings extension); the caller owns the dictionary.
type StringInterner interface {
	Code(col schema.ColumnRef, literal string) (int64, bool)
}

// Parse parses a SQL string and validates it against the schema. String
// literals are rejected; use ParseWith to supply a dictionary.
func Parse(s *schema.Schema, sql string) (query.Query, error) {
	return ParseWith(s, nil, sql)
}

// ParseWith parses a SQL string, resolving quoted string literals in
// equality predicates through the interner (col = 'literal' becomes an
// integer equality on the literal's code; unknown literals map to code 0,
// which matches nothing — the correct semantics for a value absent from
// the database). Order comparisons on strings are rejected, as interned
// codes carry no order (§9).
func ParseWith(s *schema.Schema, dict StringInterner, sql string) (query.Query, error) {
	p := scanner{s: s, dict: dict, src: sql}
	p.advance()
	q, err := p.parse()
	if err != nil {
		return query.Query{}, fmt.Errorf("sqlparse: %w: %w", ErrDialect, err)
	}
	return q, nil
}

// MustParse is Parse that panics on error; intended for tests and examples
// with literal queries.
func MustParse(s *schema.Schema, sql string) query.Query {
	q, err := Parse(s, sql)
	if err != nil {
		panic(err)
	}
	return q
}

type tokenKind uint8

const (
	kIdent tokenKind = iota
	kNumber
	kString // 'quoted literal'
	kSymbol // * , . ; < = > and any other single byte
	kEOF
)

// span is one token of the input: src[lo:hi] is its text (without the quotes
// of a kString), pos where it starts.
type span struct {
	kind   tokenKind
	pos    int
	lo, hi int
}

// byteClass says what token a byte starts. Identifiers and numbers are
// scanned bytewise — a byte >= 0x80 is classified as the Latin-1 code point
// of the same value — so the classes come from the unicode predicates, and
// are disjoint: no byte passes two of them.
type byteClass uint8

const (
	clsSymbol byteClass = iota // a one-byte token: * , . ; < = > or a byte the grammar has no use for
	clsSpace                   // skipped
	clsQuote                   // opens a string literal
	clsMinus                   // starts a number
	clsDigit                   // starts or continues a number, continues an identifier
	clsLetter                  // letter or _: starts or continues an identifier
)

var classOf = func() (t [256]byteClass) {
	for b := range t {
		c := rune(b)
		switch {
		case unicode.IsSpace(c):
			t[b] = clsSpace
		case c == '\'':
			t[b] = clsQuote
		case c == '-':
			t[b] = clsMinus
		case unicode.IsDigit(c):
			t[b] = clsDigit
		case unicode.IsLetter(c) || c == '_':
			t[b] = clsLetter
		}
	}
	return t
}()

// scanner is a cursor over src with one token of lookahead.
type scanner struct {
	s    *schema.Schema
	dict StringInterner
	src  string
	off  int  // where scanning resumes
	tok  span // the lookahead
}

// advance scans the next token into p.tok.
func (p *scanner) advance() {
	src, i := p.src, p.off
	for i < len(src) && classOf[src[i]] == clsSpace {
		i++
	}
	if i >= len(src) {
		p.off = i
		p.tok = span{kind: kEOF, pos: len(src), lo: len(src), hi: len(src)}
		return
	}
	j := i + 1
	kind := kSymbol
	lo, hi := i, j
	switch classOf[src[i]] {
	case clsQuote:
		for j < len(src) && src[j] != '\'' {
			j++
		}
		if j < len(src) {
			kind, lo, hi = kString, i+1, j
			j++
		} else {
			j = i + 1 // unterminated: the quote is a stray symbol
		}
	case clsMinus, clsDigit:
		for j < len(src) && classOf[src[j]] == clsDigit {
			j++
		}
		kind, hi = kNumber, j
	case clsLetter:
		for j < len(src) && (classOf[src[j]] == clsLetter || classOf[src[j]] == clsDigit) {
			j++
		}
		kind, hi = kIdent, j
	}
	p.off = j
	p.tok = span{kind: kind, pos: i, lo: lo, hi: hi}
}

func (p *scanner) peek() span { return p.tok }

func (p *scanner) next() span {
	t := p.tok
	if t.kind != kEOF {
		p.advance()
	}
	return t
}

// text returns the token's text as error messages quote it; a symbol byte
// >= 0x80 reads as its Latin-1 code point.
func (p *scanner) text(t span) string {
	if t.kind == kSymbol && p.src[t.lo] >= 0x80 {
		return string(rune(p.src[t.lo]))
	}
	return p.src[t.lo:t.hi]
}

func (p *scanner) isKeyword(t span, kw string) bool {
	return t.kind == kIdent && strings.EqualFold(p.src[t.lo:t.hi], kw)
}

func (p *scanner) isSymbol(t span, sym byte) bool {
	return t.kind == kSymbol && p.src[t.lo] == sym
}

func (p *scanner) expectKeyword(kw string) error {
	t := p.next()
	if !p.isKeyword(t, kw) {
		return fmt.Errorf("expected %s at position %d, got %q", kw, t.pos, p.text(t))
	}
	return nil
}

func (p *scanner) expectSymbol(sym byte) error {
	t := p.next()
	if !p.isSymbol(t, sym) {
		return fmt.Errorf("expected %q at position %d, got %q", string(sym), t.pos, p.text(t))
	}
	return nil
}

func (p *scanner) parse() (query.Query, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return query.Query{}, err
	}
	if err := p.expectSymbol('*'); err != nil {
		return query.Query{}, fmt.Errorf("only SELECT * queries are supported: %w", err)
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return query.Query{}, err
	}
	// A typical query's clauses are collected on the stack; query.New copies
	// what it keeps.
	var (
		tableBuf [8]string
		joinBuf  [8]query.Join
		predBuf  [8]query.Predicate
	)
	tables, err := p.tableList(tableBuf[:0])
	if err != nil {
		return query.Query{}, err
	}
	joins, preds := joinBuf[:0], predBuf[:0]
	if p.isKeyword(p.peek(), "WHERE") {
		p.next()
		joins, preds, err = p.whereClause(joins, preds)
		if err != nil {
			return query.Query{}, err
		}
	}
	if p.isSymbol(p.peek(), ';') {
		p.next()
	}
	if t := p.peek(); t.kind != kEOF {
		return query.Query{}, fmt.Errorf("unexpected trailing input %q at position %d", p.text(t), t.pos)
	}
	return query.New(p.s, tables, joins, preds)
}

func (p *scanner) tableList(tables []string) ([]string, error) {
	for {
		t := p.next()
		if t.kind != kIdent {
			return nil, fmt.Errorf("expected table name at position %d, got %q", t.pos, p.text(t))
		}
		name, ok := p.s.FoldTable(p.src[t.lo:t.hi])
		if !ok {
			name = strings.ToLower(p.src[t.lo:t.hi]) // unknown, or not ASCII: query.New decides
		}
		tables = append(tables, name)
		if p.isSymbol(p.peek(), ',') {
			p.next()
			continue
		}
		return tables, nil
	}
}

func (p *scanner) whereClause(joins []query.Join, preds []query.Predicate) ([]query.Join, []query.Predicate, error) {
	for {
		if p.isKeyword(p.peek(), "TRUE") {
			p.next()
		} else {
			var err error
			joins, preds, err = p.condition(joins, preds)
			if err != nil {
				return nil, nil, err
			}
		}
		if p.isKeyword(p.peek(), "AND") {
			p.next()
			continue
		}
		return joins, preds, nil
	}
}

// condition parses one conjunct and appends it to joins or preds.
func (p *scanner) condition(joins []query.Join, preds []query.Predicate) ([]query.Join, []query.Predicate, error) {
	left, err := p.columnRef()
	if err != nil {
		return nil, nil, err
	}
	opTok := p.next()
	var op string
	switch {
	case p.isSymbol(opTok, '<'):
		op = schema.OpLT
	case p.isSymbol(opTok, '='):
		op = schema.OpEQ
	case p.isSymbol(opTok, '>'):
		op = schema.OpGT
	default:
		return nil, nil, fmt.Errorf("expected operator <,=,> at position %d, got %q", opTok.pos, p.text(opTok))
	}
	rhs := p.peek()
	if rhs.kind == kNumber {
		p.next()
		v, err := strconv.ParseInt(p.src[rhs.lo:rhs.hi], 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("bad integer literal %q at position %d", p.text(rhs), rhs.pos)
		}
		return joins, append(preds, query.Predicate{Col: left, Op: op, Val: v}), nil
	}
	if rhs.kind == kString {
		p.next()
		if p.dict == nil {
			return nil, nil, fmt.Errorf("string literal %q at position %d requires a dictionary (use ParseWith)", p.text(rhs), rhs.pos)
		}
		if op != schema.OpEQ {
			return nil, nil, fmt.Errorf("string predicates support only = at position %d (interned codes carry no order)", opTok.pos)
		}
		code, ok := p.dict.Code(left, p.text(rhs))
		if !ok {
			code = 0 // absent literal: matches nothing
		}
		return joins, append(preds, query.Predicate{Col: left, Op: op, Val: code}), nil
	}
	right, err := p.columnRef()
	if err != nil {
		return nil, nil, err
	}
	if op != schema.OpEQ {
		return nil, nil, fmt.Errorf("joins must use = at position %d", opTok.pos)
	}
	return append(joins, query.Join{Left: left, Right: right}), preds, nil
}

func (p *scanner) columnRef() (schema.ColumnRef, error) {
	t := p.next()
	if t.kind != kIdent {
		return schema.ColumnRef{}, fmt.Errorf("expected column reference at position %d, got %q", t.pos, p.text(t))
	}
	if err := p.expectSymbol('.'); err != nil {
		return schema.ColumnRef{}, fmt.Errorf("column references must be table-qualified: %w", err)
	}
	c := p.next()
	if c.kind != kIdent {
		return schema.ColumnRef{}, fmt.Errorf("expected column name at position %d, got %q", c.pos, p.text(c))
	}
	table, column := p.src[t.lo:t.hi], p.src[c.lo:c.hi]
	if ref, ok := p.s.FoldColumn(table, column); ok {
		return ref, nil
	}
	// Unknown, or not ASCII: query.New decides.
	return schema.ColumnRef{Table: strings.ToLower(table), Column: strings.ToLower(column)}, nil
}
