package expr

import (
	"fmt"

	"visualinux/internal/ctypes"
	"visualinux/internal/target"
)

func (n *numberNode) eval(env *Env) (Value, error) {
	t := n.typ
	if t == nil {
		t = env.Types().MustLookup("long")
	}
	return MakeInt(t, n.v), nil
}

func (n *stringNode) eval(env *Env) (Value, error) { return MakeString(n.s), nil }

func (n *atVarNode) eval(env *Env) (Value, error) {
	if v, ok := env.Vars[n.name]; ok {
		return v, nil
	}
	if env.Resolver != nil {
		if v, ok := env.Resolver(n.name); ok {
			return v, nil
		}
	}
	return Value{}, fmt.Errorf("expr: unbound variable @%s", n.name)
}

func (n *identNode) eval(env *Env) (Value, error) {
	switch n.name {
	case "NULL", "nullptr":
		return Value{Type: ctypes.VoidPtr}, nil
	case "true":
		return MakeBool(true), nil
	case "false":
		return MakeBool(false), nil
	}
	// ViewCL-spliced variable without '@' (allowed for convenience when the
	// name does not collide with a symbol).
	if v, ok := env.Vars[n.name]; ok {
		return v, nil
	}
	if sym, ok := env.Target.LookupSymbol(n.name); ok {
		typ := sym.Type
		if typ == nil {
			typ = env.Types().MustLookup("unsigned long")
		}
		return MakeLValue(typ, sym.Addr), nil
	}
	if v, t, ok := env.Types().EnumeratorValue(n.name); ok {
		return MakeInt(t, uint64(v)), nil
	}
	return Value{}, fmt.Errorf("expr: unknown identifier %q", n.name)
}

func (n *castNode) eval(env *Env) (Value, error) {
	v, err := n.x.eval(env)
	if err != nil {
		return Value{}, err
	}
	v, err = env.Load(v)
	if err != nil {
		return Value{}, err
	}
	st := n.typ.Strip()
	switch st.Kind {
	case ctypes.KindPointer:
		return Value{Type: n.typ, Bits: v.Bits}, nil
	case ctypes.KindInt, ctypes.KindBool, ctypes.KindEnum:
		bits := v.Bits
		if sz := st.Size(); sz < 8 {
			bits &= (1 << (sz * 8)) - 1
		}
		return Value{Type: n.typ, Bits: bits}, nil
	case ctypes.KindStruct, ctypes.KindUnion:
		// (struct foo)x is not valid C on scalars, but ViewCL uses it to
		// re-view a pointer as an object: treat the scalar as an address.
		return MakeLValue(n.typ, v.Bits), nil
	}
	return Value{}, fmt.Errorf("expr: unsupported cast to %s", n.typ)
}

func (n *sizeofTypeNode) eval(env *Env) (Value, error) {
	return MakeInt(env.Types().MustLookup("size_t"), n.typ.Size()), nil
}

func (n *memberNode) eval(env *Env) (Value, error) {
	base, err := n.x.eval(env)
	if err != nil {
		return Value{}, err
	}
	if n.arrow || base.Type.IsPointer() || (!base.HasAddr && !base.IsStr) {
		// '->', or be GDB-lenient and auto-dereference '.': load the
		// pointer and re-anchor at its target.
		base, err = env.Load(base)
		if err != nil {
			return Value{}, err
		}
		pt := base.Type.Strip()
		if pt == nil || pt.Kind != ctypes.KindPointer {
			return Value{}, fmt.Errorf("expr: '->%s' on non-pointer %s", n.name, base.Type)
		}
		if base.Bits == 0 {
			return Value{}, fmt.Errorf("expr: NULL dereference accessing %q", n.name)
		}
		base = MakeLValue(pt.Elem, base.Bits)
	}
	if c := n.cache.Load(); c != nil && c.base == base.Type {
		return env.LoadField(base, c.f)
	}
	f, ok := base.Type.FieldByName(n.name)
	if !ok {
		return Value{}, fmt.Errorf("expr: %s has no member %q", base.Type, n.name)
	}
	n.cache.Store(&memberCache{base: base.Type, f: f})
	return env.LoadField(base, f)
}

func (n *indexNode) eval(env *Env) (Value, error) {
	base, err := n.x.eval(env)
	if err != nil {
		return Value{}, err
	}
	idxV, err := n.i.eval(env)
	if err != nil {
		return Value{}, err
	}
	idxV, err = env.Load(idxV)
	if err != nil {
		return Value{}, err
	}
	idx := idxV.Int()
	if base.IsStr {
		return Value{}, fmt.Errorf("expr: indexing a string literal")
	}

	bt := base.Type.Strip()
	switch {
	case bt.Kind == ctypes.KindArray && base.HasAddr:
		elem := bt.Elem
		return MakeLValue(elem, base.Addr+uint64(idx)*elem.Size()), nil
	default:
		base, err = env.Load(base)
		if err != nil {
			return Value{}, err
		}
		pt := base.Type.Strip()
		if pt.Kind != ctypes.KindPointer {
			return Value{}, fmt.Errorf("expr: indexing non-pointer %s", base.Type)
		}
		elem := pt.Elem
		return MakeLValue(elem, base.Bits+uint64(idx)*elem.Size()), nil
	}
}

func (n *unaryNode) eval(env *Env) (Value, error) {
	if n.op == "&" {
		v, err := n.x.eval(env)
		if err != nil {
			return Value{}, err
		}
		if !v.HasAddr {
			return Value{}, fmt.Errorf("expr: '&' on non-lvalue")
		}
		return MakePointer(v.Type, v.Addr), nil
	}
	v, err := n.x.eval(env)
	if err != nil {
		return Value{}, err
	}
	if v.IsStr && n.op != "!" {
		return Value{}, fmt.Errorf("expr: %s on a string literal", n.op)
	}
	if n.op == "sizeof" {
		return MakeInt(env.Types().MustLookup("size_t"), v.Type.Size()), nil
	}
	v, err = env.Load(v)
	if err != nil {
		return Value{}, err
	}
	switch n.op {
	case "*":
		pt := v.Type.Strip()
		if pt.Kind != ctypes.KindPointer {
			return Value{}, fmt.Errorf("expr: dereference of non-pointer %s", v.Type)
		}
		if v.Bits == 0 {
			return Value{}, fmt.Errorf("expr: NULL dereference")
		}
		return MakeLValue(pt.Elem, v.Bits), nil
	case "-":
		return Value{Type: v.Type, Bits: uint64(-v.Int())}, nil
	case "~":
		return Value{Type: v.Type, Bits: ^v.Bits}, nil
	case "!":
		return MakeBool(!v.Bool()), nil
	}
	return Value{}, fmt.Errorf("expr: unsupported unary %q", n.op)
}

func (n *ternaryNode) eval(env *Env) (Value, error) {
	c, err := n.cond.eval(env)
	if err != nil {
		return Value{}, err
	}
	c, err = env.Load(c)
	if err != nil {
		return Value{}, err
	}
	if c.Bool() {
		return n.a.eval(env)
	}
	return n.b.eval(env)
}

func (n *binaryNode) eval(env *Env) (Value, error) {
	// Short-circuit logical operators.
	if n.op == "&&" || n.op == "||" {
		x, err := evalLoaded(env, n.x)
		if err != nil {
			return Value{}, err
		}
		if n.op == "&&" && !x.Bool() {
			return MakeBool(false), nil
		}
		if n.op == "||" && x.Bool() {
			return MakeBool(true), nil
		}
		y, err := evalLoaded(env, n.y)
		if err != nil {
			return Value{}, err
		}
		return MakeBool(y.Bool()), nil
	}
	x, err := evalLoaded(env, n.x)
	if err != nil {
		return Value{}, err
	}
	y, err := evalLoaded(env, n.y)
	if err != nil {
		return Value{}, err
	}
	return applyBinary(env, n.op, x, y)
}

func evalLoaded(env *Env, n node) (Value, error) {
	v, err := n.eval(env)
	if err != nil {
		return Value{}, err
	}
	return env.Load(v)
}

func applyBinary(env *Env, op string, x, y Value) (Value, error) {
	// String equality (synthetic strings from helpers).
	if x.IsStr || y.IsStr {
		switch op {
		case "==":
			return MakeBool(x.Str == y.Str), nil
		case "!=":
			return MakeBool(x.Str != y.Str), nil
		}
		return Value{}, fmt.Errorf("expr: operator %q on string", op)
	}

	// Pointer arithmetic: p + n, p - n scale by element size; p - q yields
	// an element count.
	xp, yp := x.Type.IsPointer(), y.Type.IsPointer()
	if (op == "+" || op == "-") && (xp || yp) {
		if xp && yp {
			if op != "-" {
				return Value{}, fmt.Errorf("expr: pointer + pointer")
			}
			es := x.Type.Strip().Elem.Size()
			if es == 0 {
				es = 1
			}
			return MakeInt(env.Types().MustLookup("long"), (x.Bits-y.Bits)/es), nil
		}
		p, i := x, y
		if yp {
			p, i = y, x
		}
		es := p.Type.Strip().Elem.Size()
		if es == 0 {
			es = 1
		}
		d := uint64(i.Int()) * es
		if op == "-" {
			return Value{Type: p.Type, Bits: p.Bits - d}, nil
		}
		return Value{Type: p.Type, Bits: p.Bits + d}, nil
	}

	signed := isSigned(x) && isSigned(y) && !xp && !yp
	switch op {
	case "==":
		return MakeBool(x.Bits == y.Bits), nil
	case "!=":
		return MakeBool(x.Bits != y.Bits), nil
	case "<", ">", "<=", ">=":
		var r bool
		if signed {
			a, b := x.Int(), y.Int()
			switch op {
			case "<":
				r = a < b
			case ">":
				r = a > b
			case "<=":
				r = a <= b
			case ">=":
				r = a >= b
			}
		} else {
			a, b := x.Bits, y.Bits
			switch op {
			case "<":
				r = a < b
			case ">":
				r = a > b
			case "<=":
				r = a <= b
			case ">=":
				r = a >= b
			}
		}
		return MakeBool(r), nil
	}

	rt := x.Type
	if rt == nil || !rt.IsInteger() && !rt.IsPointer() {
		rt = y.Type
	}
	if rt == nil {
		rt = env.Types().MustLookup("long")
	}
	var bits uint64
	switch op {
	case "+":
		bits = x.Bits + y.Bits
	case "-":
		bits = x.Bits - y.Bits
	case "*":
		bits = x.Bits * y.Bits
	case "/":
		if y.Bits == 0 {
			return Value{}, fmt.Errorf("expr: division by zero")
		}
		if signed {
			bits = uint64(x.Int() / y.Int())
		} else {
			bits = x.Bits / y.Bits
		}
	case "%":
		if y.Bits == 0 {
			return Value{}, fmt.Errorf("expr: modulo by zero")
		}
		if signed {
			bits = uint64(x.Int() % y.Int())
		} else {
			bits = x.Bits % y.Bits
		}
	case "&":
		bits = x.Bits & y.Bits
	case "|":
		bits = x.Bits | y.Bits
	case "^":
		bits = x.Bits ^ y.Bits
	case "<<":
		bits = x.Bits << (y.Bits & 63)
	case ">>":
		if signed {
			bits = uint64(x.Int() >> (y.Bits & 63))
		} else {
			bits = x.Bits >> (y.Bits & 63)
		}
	default:
		return Value{}, fmt.Errorf("expr: unsupported operator %q", op)
	}
	if sz := rt.Strip().Size(); sz > 0 && sz < 8 && !rt.IsPointer() {
		bits &= (1 << (sz * 8)) - 1
	}
	return Value{Type: rt, Bits: bits}, nil
}

func isSigned(v Value) bool {
	t := v.Type.Strip()
	return t != nil && (t.Kind == ctypes.KindInt || t.Kind == ctypes.KindEnum) && t.Signed
}

func (n *callNode) eval(env *Env) (Value, error) {
	// Builtin macro: container_of(ptr, type, member) — the kernel's
	// embedded-container idiom. type and member are names, not values.
	if n.name == "container_of" {
		return evalContainerOf(env, n.args)
	}
	if n.name == "offsetof" {
		return evalOffsetof(env, n.args)
	}
	f, ok := env.Funcs[n.name]
	if !ok {
		return Value{}, fmt.Errorf("expr: unknown function %q (is the helper registered?)", n.name)
	}
	args := make([]Value, len(n.args))
	for i, a := range n.args {
		v, err := evalLoaded(env, a)
		if err != nil {
			return Value{}, err
		}
		args[i] = v
	}
	return f(env, args)
}

// nodeAsName renders an identifier or dotted-member chain as a textual name,
// for macro-style arguments (container_of's type and member).
func nodeAsName(n node) (string, bool) {
	switch x := n.(type) {
	case *identNode:
		return x.name, true
	case *memberNode:
		base, ok := nodeAsName(x.x)
		if !ok {
			return "", false
		}
		return base + "." + x.name, true
	}
	return "", false
}

func evalContainerOf(env *Env, args []node) (Value, error) {
	if len(args) != 3 {
		return Value{}, fmt.Errorf("expr: container_of wants (ptr, type, member)")
	}
	ptr, err := evalLoaded(env, args[0])
	if err != nil {
		return Value{}, err
	}
	tname, ok := nodeAsName(args[1])
	if !ok {
		return Value{}, fmt.Errorf("expr: container_of: bad type argument")
	}
	mname, ok := nodeAsName(args[2])
	if !ok {
		return Value{}, fmt.Errorf("expr: container_of: bad member argument")
	}
	typ, ok := env.Types().Lookup(tname)
	if !ok {
		return Value{}, fmt.Errorf("expr: container_of: unknown type %q", tname)
	}
	f, err := typ.ResolvePath(mname)
	if err != nil {
		return Value{}, err
	}
	return MakePointer(typ, ptr.Bits-f.Offset), nil
}

func evalOffsetof(env *Env, args []node) (Value, error) {
	if len(args) != 2 {
		return Value{}, fmt.Errorf("expr: offsetof wants (type, member)")
	}
	tname, ok := nodeAsName(args[0])
	if !ok {
		return Value{}, fmt.Errorf("expr: offsetof: bad type argument")
	}
	mname, ok := nodeAsName(args[1])
	if !ok {
		return Value{}, fmt.Errorf("expr: offsetof: bad member argument")
	}
	typ, ok := env.Types().Lookup(tname)
	if !ok {
		return Value{}, fmt.Errorf("expr: offsetof: unknown type %q", tname)
	}
	f, err := typ.ResolvePath(mname)
	if err != nil {
		return Value{}, err
	}
	return MakeInt(env.Types().MustLookup("size_t"), f.Offset), nil
}

// ReadString reads the C string a char* value points at (helper for text
// decorators and the task_state-style helpers).
func ReadString(env *Env, v Value, max int) (string, error) {
	if v.IsStr {
		return v.Str, nil
	}
	t := v.Type.Strip()
	switch {
	case t.Kind == ctypes.KindPointer:
		if v.Bits == 0 {
			return "", nil
		}
		return target.ReadCString(env.Target, v.Bits, max)
	case t.Kind == ctypes.KindArray && v.HasAddr:
		return target.ReadCString(env.Target, v.Addr, int(t.Size()))
	}
	return "", fmt.Errorf("expr: value %s is not a string", v)
}
