package expr

import (
	"fmt"
	"strings"
	"sync/atomic"

	"visualinux/internal/ctypes"
)

// Expr is a parsed C expression, reusable across evaluations. ViewCL
// compiles each ${...} escape to an Expr once and evaluates it per object.
type Expr struct {
	Src  string
	root node
}

// Parse compiles src against the type registry (needed to recognize cast
// type names at parse time, as GDB does with DWARF).
func Parse(src string, reg *ctypes.Registry) (*Expr, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, reg: reg, src: src}
	n, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.peek().Kind != tokEOF {
		return nil, fmt.Errorf("expr: trailing input %q in %q", p.peek(), src)
	}
	return &Expr{Src: src, root: n}, nil
}

// MustParse is Parse that panics; for static tables in tests and stdlib.
func MustParse(src string, reg *ctypes.Registry) *Expr {
	e, err := Parse(src, reg)
	if err != nil {
		panic(err)
	}
	return e
}

// Eval evaluates the expression, returning an rvalue-converted result for
// scalars (aggregates stay as lvalues).
func (e *Expr) Eval(env *Env) (Value, error) {
	v, err := e.root.eval(env)
	if err != nil {
		return Value{}, fmt.Errorf("%v (in %q)", err, e.Src)
	}
	lv, err := env.Load(v)
	if err != nil {
		return Value{}, fmt.Errorf("%v (in %q)", err, e.Src)
	}
	return lv, nil
}

// ConstValue reports the expression's value when it is a literal atom —
// true/false/NULL/nullptr, a number, or a string — whose evaluation never
// consults the environment and so yields the same value in every run. The
// ViewCL compiler folds such ${...} escapes at lowering time. reg resolves
// the default literal type exactly as evaluation would.
func (e *Expr) ConstValue(reg *ctypes.Registry) (Value, bool) {
	switch n := e.root.(type) {
	case *identNode:
		switch n.name {
		case "NULL", "nullptr":
			return Value{Type: ctypes.VoidPtr}, true
		case "true":
			return MakeBool(true), true
		case "false":
			return MakeBool(false), true
		}
	case *numberNode:
		t := n.typ
		if t == nil {
			t = reg.MustLookup("long")
		}
		return MakeInt(t, n.v), true
	case *stringNode:
		return MakeString(n.s), true
	}
	return Value{}, false
}

// EvalLValue evaluates without the final rvalue conversion, so the caller
// can take the object's address (used by ViewCL box anchoring).
func (e *Expr) EvalLValue(env *Env) (Value, error) {
	v, err := e.root.eval(env)
	if err != nil {
		return Value{}, fmt.Errorf("%v (in %q)", err, e.Src)
	}
	return v, nil
}

// --- AST ---------------------------------------------------------------------

type node interface {
	eval(env *Env) (Value, error)
}

type identNode struct{ name string }
type atVarNode struct{ name string }
type numberNode struct {
	v uint64
	// typ is the literal's C type, resolved once at parse time so hot
	// evaluation loops skip the registry lookup. Nil when the parse-time
	// registry does not know "long" (then eval falls back).
	typ *ctypes.Type
}
type stringNode struct{ s string }
type unaryNode struct {
	op string
	x  node
}
type binaryNode struct {
	op   string
	x, y node
}
type ternaryNode struct{ cond, a, b node }
type castNode struct {
	typ *ctypes.Type
	x   node
}
type memberNode struct {
	x     node
	name  string
	arrow bool
	// cache is a monomorphic inline cache for the field resolution: member
	// chains are evaluated once per box per run, and the base type at a given
	// syntactic position is almost always the same *ctypes.Type. The pointer
	// is swapped atomically so a parsed Expr stays safe to share between
	// concurrent evaluations.
	cache atomic.Pointer[memberCache]
}

type memberCache struct {
	base *ctypes.Type
	f    ctypes.Field
}
type indexNode struct{ x, i node }
type callNode struct {
	name string
	args []node
}
type sizeofTypeNode struct{ typ *ctypes.Type }

// --- parser ------------------------------------------------------------------

type parser struct {
	toks  []token
	pos   int
	reg   *ctypes.Registry
	src   string
	depth int // current recursion nesting (see maxParseDepth)
}

// maxParseDepth bounds parser recursion: each parenthesis costs two levels
// (the unary operand and the nested ternary), each unary prefix, cast or
// ternary arm one. The deepest expression in the stdlib and examples uses
// 8 levels; a hostile "((((..." or "----..." would otherwise recurse once
// per token and exhaust the goroutine stack — a fatal error recover()
// cannot catch.
const maxParseDepth = 256

// enter counts one level of recursion; the caller decrements p.depth on
// return.
func (p *parser) enter() error {
	p.depth++
	if p.depth > maxParseDepth {
		return fmt.Errorf("expr: expression nested too deeply (max %d)", maxParseDepth)
	}
	return nil
}

func (p *parser) peek() token   { return p.toks[p.pos] }
func (p *parser) next() token   { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) save() int     { return p.pos }
func (p *parser) restore(s int) { p.pos = s }

func (p *parser) accept(text string) bool {
	if p.peek().Kind == tokPunct && p.peek().Text == text {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(text string) error {
	if !p.accept(text) {
		return fmt.Errorf("expr: expected %q, found %q in %q", text, p.peek(), p.src)
	}
	return nil
}

func (p *parser) parseExpr() (node, error) { return p.parseTernary() }

func (p *parser) parseTernary() (node, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer func() { p.depth-- }()
	cond, err := p.parseBinary(0)
	if err != nil {
		return nil, err
	}
	if !p.accept("?") {
		return cond, nil
	}
	a, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(":"); err != nil {
		return nil, err
	}
	b, err := p.parseTernary()
	if err != nil {
		return nil, err
	}
	return &ternaryNode{cond: cond, a: a, b: b}, nil
}

// binary operator precedence levels, loosest first.
var precLevels = [][]string{
	{"||"},
	{"&&"},
	{"|"},
	{"^"},
	{"&"},
	{"==", "!="},
	{"<", ">", "<=", ">="},
	{"<<", ">>"},
	{"+", "-"},
	{"*", "/", "%"},
}

func (p *parser) parseBinary(level int) (node, error) {
	if level >= len(precLevels) {
		return p.parseUnary()
	}
	lhs, err := p.parseBinary(level + 1)
	if err != nil {
		return nil, err
	}
	for {
		matched := ""
		for _, op := range precLevels[level] {
			if p.peek().Kind == tokPunct && p.peek().Text == op {
				matched = op
				break
			}
		}
		if matched == "" {
			return lhs, nil
		}
		p.next()
		rhs, err := p.parseBinary(level + 1)
		if err != nil {
			return nil, err
		}
		lhs = &binaryNode{op: matched, x: lhs, y: rhs}
	}
}

func (p *parser) parseUnary() (node, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer func() { p.depth-- }()
	t := p.peek()
	if t.Kind == tokPunct {
		switch t.Text {
		case "-", "~", "!", "*", "&":
			p.next()
			x, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			return &unaryNode{op: t.Text, x: x}, nil
		case "(":
			// Possible cast: '(' typename ')' unary.
			s := p.save()
			p.next()
			if typ, ok := p.tryParseTypeName(); ok && p.accept(")") {
				// A cast must be followed by something castable.
				nt := p.peek()
				if nt.Kind == tokIdent || nt.Kind == tokAtIdent || nt.Kind == tokNumber ||
					nt.Kind == tokString || nt.Kind == tokChar ||
					(nt.Kind == tokPunct && (nt.Text == "(" || nt.Text == "*" || nt.Text == "&" || nt.Text == "-" || nt.Text == "~" || nt.Text == "!")) {
					x, err := p.parseUnary()
					if err != nil {
						return nil, err
					}
					return &castNode{typ: typ, x: x}, nil
				}
			}
			p.restore(s)
		}
	}
	if t.Kind == tokIdent && t.Text == "sizeof" {
		p.next()
		if err := p.expect("("); err != nil {
			return nil, err
		}
		if typ, ok := p.tryParseTypeName(); ok && p.accept(")") {
			return &sizeofTypeNode{typ: typ}, nil
		}
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return &unaryNode{op: "sizeof", x: x}, nil
	}
	return p.parsePostfix()
}

// tryParseTypeName attempts to consume a type name (optionally keyword-
// prefixed, possibly multi-word, with trailing stars) recognized by the
// registry. On failure the position is restored and ok is false.
func (p *parser) tryParseTypeName() (*ctypes.Type, bool) {
	s := p.save()
	var words []string
	for p.peek().Kind == tokIdent {
		words = append(words, p.next().Text)
		// Greedy: keep consuming while the longer spelling still resolves
		// or is a type keyword prefix ("unsigned", "struct", ...).
	}
	if len(words) == 0 {
		p.restore(s)
		return nil, false
	}
	stars := 0
	for p.accept("*") {
		stars++
	}
	name := strings.Join(words, " ")
	t, ok := p.reg.Lookup(name)
	if !ok {
		p.restore(s)
		return nil, false
	}
	for i := 0; i < stars; i++ {
		t = t.PointerTo()
	}
	return t, true
}

func (p *parser) parsePostfix() (node, error) {
	x, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.Kind != tokPunct {
			return x, nil
		}
		switch t.Text {
		case ".":
			p.next()
			id := p.next()
			if id.Kind != tokIdent {
				return nil, fmt.Errorf("expr: expected member name after '.', found %q in %q", id, p.src)
			}
			x = &memberNode{x: x, name: id.Text}
		case "->":
			p.next()
			id := p.next()
			if id.Kind != tokIdent {
				return nil, fmt.Errorf("expr: expected member name after '->', found %q in %q", id, p.src)
			}
			x = &memberNode{x: x, name: id.Text, arrow: true}
		case "[":
			p.next()
			i, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect("]"); err != nil {
				return nil, err
			}
			x = &indexNode{x: x, i: i}
		default:
			return x, nil
		}
	}
}

func (p *parser) parsePrimary() (node, error) {
	t := p.next()
	switch t.Kind {
	case tokNumber, tokChar:
		n := &numberNode{v: t.Num}
		if p.reg != nil {
			if lt, ok := p.reg.Lookup("long"); ok {
				n.typ = lt
			}
		}
		return n, nil
	case tokString:
		return &stringNode{s: t.Text}, nil
	case tokAtIdent:
		return &atVarNode{name: t.Text}, nil
	case tokIdent:
		// Function call?
		if p.peek().Kind == tokPunct && p.peek().Text == "(" {
			p.next()
			var args []node
			if !p.accept(")") {
				for {
					a, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					args = append(args, a)
					if p.accept(")") {
						break
					}
					if err := p.expect(","); err != nil {
						return nil, err
					}
				}
			}
			return &callNode{name: t.Text, args: args}, nil
		}
		return &identNode{name: t.Text}, nil
	case tokPunct:
		if t.Text == "(" {
			x, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			return x, nil
		}
	}
	return nil, fmt.Errorf("expr: unexpected token %q in %q", t, p.src)
}
