package expr_test

import (
	"testing"

	"visualinux/internal/expr"
)

// FuzzParse: Parse must never crash, whatever the source — parse errors
// yes, panics or stack exhaustion no — and an expression that parses must
// evaluate to a value or an error against the fixture world. The committed
// corpus under testdata/fuzz/FuzzParse seeds deep nesting and trailing
// input; it runs with every plain `go test`.
func FuzzParse(f *testing.F) {
	for _, src := range []string{
		"head.next->value", "squares[3] + double(2)", "(int)origin_point.x < 0 ? 1 : 2",
		"sizeof(struct point)", "*&head", `"str"`, "'c'", "@this->x",
	} {
		f.Add(src)
	}
	fx := newFixture(f)
	f.Fuzz(func(t *testing.T, src string) {
		e, err := expr.Parse(src, fx.env.Types())
		if err != nil {
			return
		}
		if e.Src != src {
			t.Fatalf("Src = %q, want %q", e.Src, src)
		}
		_, _ = e.Eval(fx.env) // errors fine; panics are the failure mode
	})
}
