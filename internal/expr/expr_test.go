package expr_test

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"visualinux/internal/ctypes"
	"visualinux/internal/expr"
	"visualinux/internal/mem"
	"visualinux/internal/target"
)

// fixture builds a tiny typed world: a point struct, a linked node chain,
// an array, strings, and a couple of symbols.
type fixture struct {
	env  *expr.Env
	tgt  *target.Sim
	node *ctypes.Type
}

func newFixture(t testing.TB) *fixture {
	t.Helper()
	m := mem.New()
	reg := ctypes.NewRegistry()
	u64 := reg.MustLookup("u64")
	s32 := reg.MustLookup("int")
	charT := reg.MustLookup("char")

	point := reg.Register(ctypes.StructOf("point",
		ctypes.F("x", s32), ctypes.F("y", s32), ctypes.F("name", charT.PointerTo())))
	node := ctypes.NewShell("node")
	node.Complete(
		ctypes.F("value", u64),
		ctypes.F("next", node.PointerTo()),
		ctypes.F("pt", point),
		ctypes.BF("flagsA", reg.MustLookup("u32"), 4),
		ctypes.BF("flagsB", reg.MustLookup("u32"), 12),
	)
	reg.Register(node)

	tgt := target.NewSim(m, reg)

	// point at 0x1000
	m.WriteU32(0x1000, 0xFFFFFFFF) // x = -1
	m.WriteU32(0x1004, 42)         // y
	m.WriteCString(0x2000, "origin")
	m.WriteU64(0x1008, 0x2000) // name

	// node chain at 0x3000 -> 0x3100 -> NULL
	m.WriteU64(0x3000, 7)          // value
	m.WriteU64(0x3008, 0x3100)     // next
	m.WriteU32(0x3010, 0xFFFFFFFF) // pt.x
	m.WriteU32(0x3020, 0xABC5)     // bitfields: flagsA=5, flagsB=0xABC
	m.WriteU64(0x3100, 9)
	m.WriteU64(0x3108, 0) // next = NULL

	// u64 array at 0x4000
	for i := uint64(0); i < 8; i++ {
		m.WriteU64(0x4000+i*8, i*i)
	}

	tgt.AddSymbol("origin_point", 0x1000, point)
	tgt.AddSymbol("head", 0x3000, node)
	tgt.AddSymbol("squares", 0x4000, u64.ArrayOf(8))
	tgt.AddSymbol("do_work", 0xFFFF0000, ctypes.FuncType)

	env := expr.NewEnv(tgt)
	env.RegisterFunc("double", func(e *expr.Env, args []expr.Value) (expr.Value, error) {
		if len(args) != 1 {
			return expr.Value{}, fmt.Errorf("double: want 1 argument, got %d", len(args))
		}
		return expr.MakeInt(u64, args[0].Uint()*2), nil
	})
	return &fixture{env: env, tgt: tgt, node: node}
}

func (f *fixture) eval(t testing.TB, src string) expr.Value {
	t.Helper()
	ex, err := expr.Parse(src, f.env.Types())
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	v, err := ex.Eval(f.env)
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	return v
}

func (f *fixture) evalErr(t testing.TB, src string) error {
	t.Helper()
	ex, err := expr.Parse(src, f.env.Types())
	if err != nil {
		return err
	}
	_, err = ex.Eval(f.env)
	return err
}

func TestLiteralsAndArithmetic(t *testing.T) {
	f := newFixture(t)
	cases := map[string]uint64{
		"1 + 2*3":        7,
		"(1 + 2) * 3":    9,
		"10 / 3":         3,
		"10 % 3":         1,
		"1 << 10":        1024,
		"0xFF & 0x0F":    0x0F,
		"0xF0 | 0x0F":    0xFF,
		"5 ^ 1":          4,
		"~0 & 0xFF":      0xFF,
		"0x10":           16,
		"'A'":            65,
		"1 < 2":          1,
		"2 <= 1":         0,
		"3 == 3":         1,
		"3 != 3":         0,
		"1 && 0":         0,
		"1 || 0":         1,
		"!0":             1,
		"1 ? 42 : 7":     42,
		"0 ? 42 : 7":     7,
		"-5 + 10":        5,
		"100u":           100,
		"sizeof(u64)":    8,
		"sizeof(point)":  16,
		"sizeof(node *)": 8,
	}
	for src, want := range cases {
		if got := f.eval(t, src).Uint(); got != want {
			t.Errorf("%s = %d, want %d", src, got, want)
		}
	}
}

// Property: the evaluator agrees with Go on random small arithmetic.
func TestArithmeticProperty(t *testing.T) {
	f := newFixture(t)
	prop := func(a, b uint16, op uint8) bool {
		ops := []string{"+", "-", "*", "&", "|", "^"}
		o := ops[int(op)%len(ops)]
		src := fmtUint(uint64(a)) + " " + o + " " + fmtUint(uint64(b))
		got := f.eval(t, src).Uint()
		var want uint64
		x, y := uint64(a), uint64(b)
		switch o {
		case "+":
			want = x + y
		case "-":
			want = x - y
		case "*":
			want = x * y
		case "&":
			want = x & y
		case "|":
			want = x | y
		case "^":
			want = x ^ y
		}
		// result is typed "long" (8 bytes): no masking
		return got == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func fmtUint(v uint64) string {
	if v == 0 {
		return "0"
	}
	var b []byte
	for v > 0 {
		b = append([]byte{byte('0' + v%10)}, b...)
		v /= 10
	}
	return string(b)
}

func TestMemberAccess(t *testing.T) {
	f := newFixture(t)
	if got := f.eval(t, "origin_point.y").Uint(); got != 42 {
		t.Errorf("y = %d", got)
	}
	if got := f.eval(t, "origin_point.x").Int(); got != -1 {
		t.Errorf("x = %d (signed)", got)
	}
	if got := f.eval(t, "head.value").Uint(); got != 7 {
		t.Errorf("value = %d", got)
	}
	// -> across the chain, and auto-deref leniency on '.'
	if got := f.eval(t, "head.next->value").Uint(); got != 9 {
		t.Errorf("next->value = %d", got)
	}
	if got := f.eval(t, "head.next.value").Uint(); got != 9 {
		t.Errorf("next.value (auto-deref) = %d", got)
	}
	// nested struct
	if got := f.eval(t, "head.pt.x").Int(); got != -1 {
		t.Errorf("pt.x = %d", got)
	}
}

func TestBitfieldRead(t *testing.T) {
	f := newFixture(t)
	if got := f.eval(t, "head.flagsA").Uint(); got != 5 {
		t.Errorf("flagsA = %d", got)
	}
	if got := f.eval(t, "head.flagsB").Uint(); got != 0xABC {
		t.Errorf("flagsB = %#x", got)
	}
}

func TestPointersAndArrays(t *testing.T) {
	f := newFixture(t)
	if got := f.eval(t, "squares[5]").Uint(); got != 25 {
		t.Errorf("squares[5] = %d", got)
	}
	if got := f.eval(t, "&origin_point").Uint(); got != 0x1000 {
		t.Errorf("&origin_point = %#x", got)
	}
	if got := f.eval(t, "*(u64 *)0x4010").Uint(); got != 4 {
		t.Errorf("deref cast = %d", got)
	}
	// pointer arithmetic scales
	if got := f.eval(t, "(u64 *)0x4000 + 3").Uint(); got != 0x4018 {
		t.Errorf("ptr+3 = %#x", got)
	}
	if got := f.eval(t, "((u64 *)0x4020 - (u64 *)0x4000)").Uint(); got != 4 {
		t.Errorf("ptr diff = %d", got)
	}
	if got := f.eval(t, "((node *)&head)->value").Uint(); got != 7 {
		t.Errorf("cast member = %d", got)
	}
}

func TestBuiltins(t *testing.T) {
	f := newFixture(t)
	// container_of: &head.pt back to head
	if got := f.eval(t, "container_of(&head.pt, node, pt)").Uint(); got != 0x3000 {
		t.Errorf("container_of = %#x", got)
	}
	if got := f.eval(t, "offsetof(node, pt)").Uint(); got != 16 {
		t.Errorf("offsetof = %d", got)
	}
	if got := f.eval(t, "double(21)").Uint(); got != 42 {
		t.Errorf("helper = %d", got)
	}
	if got := f.eval(t, "NULL").Uint(); got != 0 {
		t.Errorf("NULL = %d", got)
	}
	if got := f.eval(t, "true").Uint(); got != 1 {
		t.Errorf("true = %d", got)
	}
}

func TestVarsAndResolver(t *testing.T) {
	f := newFixture(t)
	f.env.Vars["n"] = expr.MakePointer(f.node, 0x3000)
	if got := f.eval(t, "@n->value").Uint(); got != 7 {
		t.Errorf("@n->value = %d", got)
	}
	f.env.Resolver = func(name string) (expr.Value, bool) {
		if name == "lazy" {
			return expr.MakeInt(f.env.Types().MustLookup("u64"), 99), true
		}
		return expr.Value{}, false
	}
	if got := f.eval(t, "@lazy + 1").Uint(); got != 100 {
		t.Errorf("resolver = %d", got)
	}
}

func TestStrings(t *testing.T) {
	f := newFixture(t)
	v := f.eval(t, "origin_point.name")
	s, err := expr.ReadString(f.env, v, 32)
	if err != nil || s != "origin" {
		t.Errorf("string = %q, %v", s, err)
	}
	lit := f.eval(t, `"hello"`)
	if !lit.IsStr || lit.Str != "hello" {
		t.Errorf("literal = %v", lit)
	}
	eq := f.eval(t, `"a" == "a"`)
	if !eq.Bool() {
		t.Errorf("string equality failed")
	}
}

func TestSignedComparisons(t *testing.T) {
	f := newFixture(t)
	// origin_point.x is int -1: signed compare must see it below zero.
	if !f.eval(t, "origin_point.x < 0").Bool() {
		t.Error("-1 < 0 failed (signedness lost)")
	}
	if f.eval(t, "origin_point.y < 0").Bool() {
		t.Error("42 < 0")
	}
}

func TestEvalErrors(t *testing.T) {
	f := newFixture(t)
	for _, src := range []string{
		"head.next->next->value", // NULL dereference at the chain end
		"1 / 0",
		"5 % 0",
		"unknown_symbol_xyz",
		"unknown_fn(1)",
		"@unbound",
		"head.nomember",
		"*42",
	} {
		if err := f.evalErr(t, src); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
}

func TestParseErrors(t *testing.T) {
	f := newFixture(t)
	for _, src := range []string{
		"1 +", "(1", "a..b", "1 ? 2", "foo(", "'unterminated", `"open`,
		"@", "0x", "]",
	} {
		if _, err := expr.Parse(src, f.env.Types()); err == nil {
			t.Errorf("no parse error for %q", src)
		}
	}
}

// TestParseDepthBound pins the recursion bound: every nesting form fails
// with an error at depth 10 000 instead of overflowing the stack, while
// nesting far deeper than any stdlib expression still parses.
func TestParseDepthBound(t *testing.T) {
	f := newFixture(t)
	const deep = 10000
	for name, src := range map[string]string{
		"parens":  strings.Repeat("(", deep) + "1" + strings.Repeat(")", deep),
		"unary":   strings.Repeat("-", deep) + "1",
		"not":     strings.Repeat("!", deep) + "1",
		"deref":   strings.Repeat("*", deep) + "p",
		"casts":   strings.Repeat("(int)", deep) + "1",
		"ternary": strings.Repeat("1 ? 1 : ", deep) + "1",
		"index":   "a" + strings.Repeat("[a", deep) + strings.Repeat("]", deep),
		"calls":   strings.Repeat("f(", deep) + "1" + strings.Repeat(")", deep),
	} {
		_, err := expr.Parse(src, f.env.Types())
		if err == nil || !strings.Contains(err.Error(), "nested too deeply") {
			t.Errorf("%s: err = %v, want the depth bound", name, err)
		}
	}
	ok := strings.Repeat("(", 64) + "-(int)!1" + strings.Repeat(")", 64)
	if _, err := expr.Parse(ok, f.env.Types()); err != nil {
		t.Errorf("64-level nesting: %v", err)
	}
}

func TestStatsCounted(t *testing.T) {
	f := newFixture(t)
	f.tgt.Stats().Reset()
	f.eval(t, "head.next->value")
	reads, bytes := f.tgt.Stats().Snapshot()
	if reads == 0 || bytes == 0 {
		t.Errorf("no traffic recorded: %d reads %d bytes", reads, bytes)
	}
}
