package minicc

import (
	"fmt"

	"wytiwyg/internal/isa"
)

// Check type-checks a program in place: it resolves names, annotates every
// expression with its type, collects each function's locals, and marks
// address-taken variables (which the code generator must keep in memory).
func Check(prog *Program) error {
	c := &checker{prog: prog}
	c.externs = make(map[string]*ExternDecl)
	for _, e := range prog.Externs {
		if _, dup := c.externs[e.Name]; dup {
			return fmt.Errorf("minicc: duplicate extern %q", e.Name)
		}
		c.externs[e.Name] = e
	}
	c.globals = make(map[string]*GlobalDecl)
	var data uint64 // the data section's size up to g, laid out as codegen does
	for _, g := range prog.Globals {
		if _, dup := c.globals[g.Name]; dup {
			return fmt.Errorf("minicc: duplicate global %q", g.Name)
		}
		c.globals[g.Name] = g
		// Checked before codegen allocates the section: globals past it
		// would overlap the program inputs and the heap.
		a := uint64(max(g.Type.Align(), 1))
		data = (data+a-1)/a*a + uint64(g.Type.Size())
		if g.HasStr {
			data += uint64(len(g.InitStr)) + 4 // the string, its NUL and padding
		}
		if data > uint64(isa.DataSize) {
			return fmt.Errorf("minicc: globals up to %q are larger than the %d-byte data section", g.Name, isa.DataSize)
		}
	}
	c.funcs = make(map[string]*FuncDecl)
	for _, f := range prog.Funcs {
		if _, dup := c.funcs[f.Name]; dup {
			return fmt.Errorf("minicc: duplicate function %q", f.Name)
		}
		c.funcs[f.Name] = f
	}
	for _, f := range prog.Funcs {
		if err := c.checkFunc(f); err != nil {
			return err
		}
	}
	return nil
}

type checker struct {
	prog    *Program
	externs map[string]*ExternDecl
	globals map[string]*GlobalDecl
	funcs   map[string]*FuncDecl

	fn     *FuncDecl
	scopes []map[string]*VarDecl
	seq    int
	frame  uint64 // bytes of fn's locals so far, alignment padding included
}

func (c *checker) pushScope() { c.scopes = append(c.scopes, map[string]*VarDecl{}) }
func (c *checker) popScope()  { c.scopes = c.scopes[:len(c.scopes)-1] }

func (c *checker) declare(v *VarDecl) error {
	top := c.scopes[len(c.scopes)-1]
	if _, dup := top[v.Name]; dup {
		return fmt.Errorf("minicc: %s: redeclared %q", c.fn.Name, v.Name)
	}
	top[v.Name] = v
	return nil
}

func (c *checker) lookup(name string) *VarDecl {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if v, ok := c.scopes[i][name]; ok {
			return v
		}
	}
	return nil
}

func (c *checker) checkFunc(f *FuncDecl) error {
	c.fn = f
	c.seq = 0
	c.frame = 0
	c.scopes = nil
	c.pushScope()
	for _, prm := range f.Params {
		if !prm.Type.IsScalar() {
			return fmt.Errorf("minicc: %s: parameter %q must be scalar", f.Name, prm.Name)
		}
		prm.Seq = c.seq
		c.seq++
		if err := c.declare(prm); err != nil {
			return err
		}
	}
	if f.Ret.Kind != TVoid && !f.Ret.IsScalar() {
		return fmt.Errorf("minicc: %s: return type must be scalar or void", f.Name)
	}
	if err := c.checkBlock(f.Body); err != nil {
		return err
	}
	c.popScope()
	return nil
}

func (c *checker) checkBlock(b *Block) error {
	c.pushScope()
	defer c.popScope()
	for _, s := range b.Stmts {
		if err := c.checkStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (c *checker) checkStmt(s Stmt) error {
	switch s := s.(type) {
	case *Block:
		return c.checkBlock(s)
	case *DeclStmt:
		v := s.Var
		if v.Type.Size() == 0 {
			return fmt.Errorf("minicc: %s: variable %q has zero size", c.fn.Name, v.Name)
		}
		// Each local fits on its own (the parser bounds every declaration);
		// together they must too, since the frame is addressed the same way.
		c.frame += uint64(v.Type.Size()) + uint64(v.Type.Align()) - 1
		if c.frame > maxObjectSize {
			return fmt.Errorf("minicc: %s: locals up to %q are larger than %d bytes", c.fn.Name, v.Name, maxObjectSize)
		}
		v.Seq = c.seq
		c.seq++
		if !v.Type.IsScalar() {
			// Arrays and structs are memory objects.
			v.AddrTaken = true
		}
		if err := c.declare(v); err != nil {
			return err
		}
		c.fn.Locals = append(c.fn.Locals, v)
		if s.Init != nil {
			if !v.Type.IsScalar() {
				return fmt.Errorf("minicc: %s: cannot initialize aggregate %q", c.fn.Name, v.Name)
			}
			if err := c.checkExpr(s.Init); err != nil {
				return err
			}
			if err := c.assignable(v.Type, s.Init); err != nil {
				return fmt.Errorf("minicc: %s: init of %q: %w", c.fn.Name, v.Name, err)
			}
		}
		return nil
	case *ExprStmt:
		return c.checkExpr(s.X)
	case *If:
		if err := c.checkExpr(s.Cond); err != nil {
			return err
		}
		if err := c.scalarCond(s.Cond); err != nil {
			return err
		}
		if err := c.checkStmt(s.Then); err != nil {
			return err
		}
		if s.Else != nil {
			return c.checkStmt(s.Else)
		}
		return nil
	case *While:
		if err := c.checkExpr(s.Cond); err != nil {
			return err
		}
		if err := c.scalarCond(s.Cond); err != nil {
			return err
		}
		return c.checkStmt(s.Body)
	case *For:
		c.pushScope()
		defer c.popScope()
		if s.Init != nil {
			if err := c.checkStmt(s.Init); err != nil {
				return err
			}
		}
		if s.Cond != nil {
			if err := c.checkExpr(s.Cond); err != nil {
				return err
			}
			if err := c.scalarCond(s.Cond); err != nil {
				return err
			}
		}
		if s.Post != nil {
			if err := c.checkExpr(s.Post); err != nil {
				return err
			}
		}
		return c.checkStmt(s.Body)
	case *Switch:
		if err := c.checkExpr(s.X); err != nil {
			return err
		}
		if !s.X.Type().Decay().IsInteger() {
			return fmt.Errorf("minicc: %s: switch on non-integer", c.fn.Name)
		}
		seen := map[int32]bool{}
		for _, cs := range s.Cases {
			if seen[cs.Val] {
				return fmt.Errorf("minicc: %s: duplicate case %d", c.fn.Name, cs.Val)
			}
			seen[cs.Val] = true
			for _, st := range cs.Body {
				if err := c.checkStmt(st); err != nil {
					return err
				}
			}
		}
		for _, st := range s.Default {
			if err := c.checkStmt(st); err != nil {
				return err
			}
		}
		return nil
	case *Return:
		if s.X == nil {
			if c.fn.Ret.Kind != TVoid {
				return fmt.Errorf("minicc: %s: missing return value", c.fn.Name)
			}
			return nil
		}
		if c.fn.Ret.Kind == TVoid {
			return fmt.Errorf("minicc: %s: return value in void function", c.fn.Name)
		}
		if err := c.checkExpr(s.X); err != nil {
			return err
		}
		return c.assignable(c.fn.Ret, s.X)
	case *Break, *Continue:
		return nil
	case *multiStmt:
		for _, st := range s.list {
			if err := c.checkStmt(st); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("minicc: unknown statement %T", s)
}

func (c *checker) scalarCond(e Expr) error {
	if !e.Type().Decay().IsScalar() {
		return fmt.Errorf("minicc: %s: condition is not scalar", c.fn.Name)
	}
	return nil
}

// assignable checks that an expression of type from can be assigned to a
// destination of type to. Integers interconvert; pointers must match, except
// that integer 0 converts to any pointer, void* interconverts with any
// pointer, and fnptr accepts any function address.
func (c *checker) assignable(to *Type, e Expr) error {
	from := e.Type().Decay()
	switch {
	case to.IsInteger() && from.IsInteger():
		return nil
	case to.Kind == TPtr && from.Kind == TPtr:
		if to.Elem.Equal(from.Elem) ||
			to.Elem.Kind == TVoid || from.Elem.Kind == TVoid ||
			to.Elem.Kind == TChar || from.Elem.Kind == TChar {
			return nil
		}
		return fmt.Errorf("incompatible pointer assignment: %s = %s", to, from)
	case to.Kind == TPtr && from.IsInteger():
		if n, ok := e.(*NumLit); ok && n.Val == 0 {
			return nil
		}
		return fmt.Errorf("cannot assign integer to %s", to)
	case to.IsInteger() && from.Kind == TPtr:
		return fmt.Errorf("cannot assign %s to integer without a cast", from)
	case to.Kind == TFnPtr && from.Kind == TFnPtr:
		return nil
	case to.Kind == TStruct && from.Kind == TStruct && to.Equal(from):
		return nil
	}
	return fmt.Errorf("cannot assign %s to %s", from, to)
}

func (c *checker) checkExpr(e Expr) error {
	switch e := e.(type) {
	case *NumLit:
		e.Typ = IntType
	case *StrLit:
		e.Typ = PtrTo(CharType)
	case *VarRef:
		if v := c.lookup(e.Name); v != nil {
			e.Local = v
			e.Typ = v.Type
			return nil
		}
		if g, ok := c.globals[e.Name]; ok {
			e.Global = g
			e.Typ = g.Type
			return nil
		}
		if f, ok := c.funcs[e.Name]; ok {
			e.Func = f
			e.Typ = FnPtrType
			return nil
		}
		if x, ok := c.externs[e.Name]; ok {
			e.Ext = x
			e.Typ = FnPtrType
			return nil
		}
		return fmt.Errorf("minicc: %s: undefined identifier %q", c.fn.Name, e.Name)
	case *Unary:
		if err := c.checkExpr(e.X); err != nil {
			return err
		}
		xt := e.X.Type()
		switch e.Op {
		case "-", "~":
			if !xt.Decay().IsInteger() {
				return fmt.Errorf("minicc: %s: unary %s of %s", c.fn.Name, e.Op, xt)
			}
			e.Typ = IntType
		case "!":
			if !xt.Decay().IsScalar() {
				return fmt.Errorf("minicc: %s: ! of %s", c.fn.Name, xt)
			}
			e.Typ = IntType
		case "*":
			d := xt.Decay()
			if d.Kind != TPtr {
				return fmt.Errorf("minicc: %s: dereference of %s", c.fn.Name, xt)
			}
			if d.Elem.Kind == TVoid {
				return fmt.Errorf("minicc: %s: dereference of void*", c.fn.Name)
			}
			e.Typ = d.Elem
		case "&":
			if err := c.markAddrTaken(e.X); err != nil {
				return err
			}
			if vr, ok := e.X.(*VarRef); ok && (vr.Func != nil || vr.Ext != nil) {
				if vr.Ext != nil {
					return fmt.Errorf("minicc: %s: cannot take address of extern %q", c.fn.Name, vr.Name)
				}
				vr.Func.AddressTaken = true
				e.Typ = FnPtrType
				return nil
			}
			e.Typ = PtrTo(xt)
		case "++", "--":
			if err := c.lvalue(e.X); err != nil {
				return err
			}
			d := xt.Decay()
			if !d.IsInteger() && d.Kind != TPtr {
				return fmt.Errorf("minicc: %s: %s of %s", c.fn.Name, e.Op, xt)
			}
			e.Typ = d
		default:
			return fmt.Errorf("minicc: unknown unary %q", e.Op)
		}
	case *Postfix:
		if err := c.checkExpr(e.X); err != nil {
			return err
		}
		if err := c.lvalue(e.X); err != nil {
			return err
		}
		d := e.X.Type().Decay()
		if !d.IsInteger() && d.Kind != TPtr {
			return fmt.Errorf("minicc: %s: %s of %s", c.fn.Name, e.Op, e.X.Type())
		}
		e.Typ = d
	case *Binary:
		if err := c.checkExpr(e.L); err != nil {
			return err
		}
		if err := c.checkExpr(e.R); err != nil {
			return err
		}
		lt, rt := e.L.Type().Decay(), e.R.Type().Decay()
		switch e.Op {
		case "&&", "||":
			if !lt.IsScalar() || !rt.IsScalar() {
				return fmt.Errorf("minicc: %s: logical op on non-scalars", c.fn.Name)
			}
			e.Typ = IntType
		case "==", "!=", "<", "<=", ">", ">=":
			if lt.Kind == TPtr && rt.Kind == TPtr {
				e.Typ = IntType
				return nil
			}
			if lt.IsInteger() && rt.IsInteger() {
				e.Typ = IntType
				return nil
			}
			// Pointer vs literal 0.
			if lt.Kind == TPtr && rt.IsInteger() || rt.Kind == TPtr && lt.IsInteger() {
				e.Typ = IntType
				return nil
			}
			return fmt.Errorf("minicc: %s: comparison of %s and %s", c.fn.Name, lt, rt)
		case "+":
			switch {
			case lt.Kind == TPtr && rt.IsInteger():
				e.Typ = lt
			case lt.IsInteger() && rt.Kind == TPtr:
				e.Typ = rt
			case lt.IsInteger() && rt.IsInteger():
				e.Typ = IntType
			default:
				return fmt.Errorf("minicc: %s: + of %s and %s", c.fn.Name, lt, rt)
			}
		case "-":
			switch {
			case lt.Kind == TPtr && rt.IsInteger():
				e.Typ = lt
			case lt.Kind == TPtr && rt.Kind == TPtr && lt.Elem.Equal(rt.Elem):
				e.Typ = IntType
			case lt.IsInteger() && rt.IsInteger():
				e.Typ = IntType
			default:
				return fmt.Errorf("minicc: %s: - of %s and %s", c.fn.Name, lt, rt)
			}
		default: // * / % & | ^ << >>
			if !lt.IsInteger() || !rt.IsInteger() {
				return fmt.Errorf("minicc: %s: %s of %s and %s", c.fn.Name, e.Op, lt, rt)
			}
			e.Typ = IntType
		}
	case *Assign:
		if err := c.checkExpr(e.L); err != nil {
			return err
		}
		if err := c.checkExpr(e.R); err != nil {
			return err
		}
		if err := c.lvalue(e.L); err != nil {
			return err
		}
		if err := c.assignable(e.L.Type(), e.R); err != nil {
			return fmt.Errorf("minicc: %s: %w", c.fn.Name, err)
		}
		e.Typ = e.L.Type()
	case *Call:
		for _, a := range e.Args {
			if err := c.checkExpr(a); err != nil {
				return err
			}
			if !a.Type().Decay().IsScalar() {
				return fmt.Errorf("minicc: %s: aggregate argument", c.fn.Name)
			}
		}
		if err := c.checkExpr(e.Fn); err != nil {
			return err
		}
		vr, _ := e.Fn.(*VarRef)
		switch {
		case vr != nil && vr.Func != nil:
			f := vr.Func
			if len(e.Args) != len(f.Params) {
				return fmt.Errorf("minicc: %s: call to %s with %d args, want %d",
					c.fn.Name, f.Name, len(e.Args), len(f.Params))
			}
			for i, a := range e.Args {
				if err := c.assignable(f.Params[i].Type, a); err != nil {
					return fmt.Errorf("minicc: %s: arg %d of %s: %w", c.fn.Name, i, f.Name, err)
				}
			}
			e.Typ = f.Ret
		case vr != nil && vr.Ext != nil:
			x := vr.Ext
			if x.Variadic {
				if len(e.Args) < len(x.Params) {
					return fmt.Errorf("minicc: %s: too few args to %s", c.fn.Name, x.Name)
				}
			} else if len(e.Args) != len(x.Params) {
				return fmt.Errorf("minicc: %s: call to %s with %d args, want %d",
					c.fn.Name, x.Name, len(e.Args), len(x.Params))
			}
			for i := range x.Params {
				if err := c.assignable(x.Params[i], e.Args[i]); err != nil {
					return fmt.Errorf("minicc: %s: arg %d of %s: %w", c.fn.Name, i, x.Name, err)
				}
			}
			e.Typ = x.Ret
		default:
			// Indirect call through an fnptr value.
			if e.Fn.Type().Kind != TFnPtr {
				return fmt.Errorf("minicc: %s: call of non-function", c.fn.Name)
			}
			e.Typ = IntType
		}
	case *Index:
		if err := c.checkExpr(e.Arr); err != nil {
			return err
		}
		if err := c.checkExpr(e.Idx); err != nil {
			return err
		}
		at := e.Arr.Type().Decay()
		if at.Kind != TPtr {
			return fmt.Errorf("minicc: %s: indexing %s", c.fn.Name, e.Arr.Type())
		}
		if !e.Idx.Type().Decay().IsInteger() {
			return fmt.Errorf("minicc: %s: non-integer index", c.fn.Name)
		}
		// Indexing a local array keeps it addressable.
		if err := c.markAddrTaken(e.Arr); err != nil {
			return err
		}
		e.Typ = at.Elem
	case *Member:
		if err := c.checkExpr(e.X); err != nil {
			return err
		}
		xt := e.X.Type()
		if e.Arrow {
			d := xt.Decay()
			if d.Kind != TPtr || d.Elem.Kind != TStruct {
				return fmt.Errorf("minicc: %s: -> on %s", c.fn.Name, xt)
			}
			xt = d.Elem
		} else if xt.Kind != TStruct {
			return fmt.Errorf("minicc: %s: . on %s", c.fn.Name, xt)
		}
		f, ok := xt.Struct.FieldByName(e.Name)
		if !ok {
			return fmt.Errorf("minicc: %s: no field %q in %s", c.fn.Name, e.Name, xt)
		}
		e.Field = f
		e.Typ = f.Type
	case *Cast:
		if err := c.checkExpr(e.X); err != nil {
			return err
		}
		from := e.X.Type().Decay()
		if !from.IsScalar() || !e.To.IsScalar() {
			return fmt.Errorf("minicc: %s: cast %s to %s", c.fn.Name, from, e.To)
		}
		e.Typ = e.To
	case *SizeofType:
		if e.Of == nil {
			if err := c.checkExpr(e.X); err != nil {
				return err
			}
			e.Of = e.X.Type()
		}
		if e.Of.Size() == 0 {
			return fmt.Errorf("minicc: %s: sizeof void", c.fn.Name)
		}
		e.Typ = IntType
	default:
		return fmt.Errorf("minicc: unknown expression %T", e)
	}
	return nil
}

// lvalue checks that e designates a storage location.
func (c *checker) lvalue(e Expr) error {
	switch e := e.(type) {
	case *VarRef:
		if e.Local != nil || e.Global != nil {
			return nil
		}
		return fmt.Errorf("minicc: %s: %q is not assignable", c.fn.Name, e.Name)
	case *Unary:
		if e.Op == "*" {
			return nil
		}
	case *Index:
		return nil
	case *Member:
		if e.Arrow {
			return nil
		}
		return c.lvalue(e.X)
	}
	return fmt.Errorf("minicc: %s: not an lvalue", c.fn.Name)
}

// markAddrTaken flags the base variable of an addressable expression so the
// code generator keeps it in memory.
func (c *checker) markAddrTaken(e Expr) error {
	switch e := e.(type) {
	case *VarRef:
		if e.Local != nil {
			e.Local.AddrTaken = true
		}
		return nil
	case *Index:
		return c.markAddrTaken(e.Arr)
	case *Member:
		if !e.Arrow {
			return c.markAddrTaken(e.X)
		}
		return nil
	case *Unary:
		return nil // *p: the pointee is already in memory
	case *Cast:
		return c.markAddrTaken(e.X)
	}
	return nil
}

// Compile is a convenience that parses and checks in one step.
func Compile(src string) (*Program, error) {
	prog, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if err := Check(prog); err != nil {
		return nil, err
	}
	return prog, nil
}
