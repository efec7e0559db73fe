package minicc

import "fmt"

// Parser builds an AST from tokens.
type Parser struct {
	toks    []Token
	pos     int
	structs map[string]*StructType
	prog    *Program
}

// Parse parses a full translation unit.
func Parse(src string) (*Program, error) {
	toks, err := LexAll(src)
	if err != nil {
		return nil, err
	}
	p := &Parser{
		toks:    toks,
		structs: make(map[string]*StructType),
		prog:    &Program{},
	}
	for !p.atEOF() {
		if err := p.parseTopLevel(); err != nil {
			return nil, err
		}
	}
	return p.prog, nil
}

func (p *Parser) atEOF() bool { return p.pos >= len(p.toks) }

func (p *Parser) peek() Token {
	if p.atEOF() {
		return Token{Kind: EOF}
	}
	return p.toks[p.pos]
}

func (p *Parser) peekAt(off int) Token {
	if p.pos+off >= len(p.toks) {
		return Token{Kind: EOF}
	}
	return p.toks[p.pos+off]
}

func (p *Parser) next() Token {
	t := p.peek()
	if !p.atEOF() {
		p.pos++
	}
	return t
}

func (p *Parser) errorf(format string, args ...any) error {
	t := p.peek()
	return &SyntaxError{Line: t.Line, Col: t.Col, Msg: fmt.Sprintf(format, args...)}
}

func (p *Parser) isPunct(lit string) bool {
	t := p.peek()
	return t.Kind == PUNCT && t.Lit == lit
}

func (p *Parser) isKeyword(lit string) bool {
	t := p.peek()
	return t.Kind == KEYWORD && t.Lit == lit
}

func (p *Parser) acceptPunct(lit string) bool {
	if p.isPunct(lit) {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) acceptKeyword(lit string) bool {
	if p.isKeyword(lit) {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) expectPunct(lit string) error {
	if !p.acceptPunct(lit) {
		return p.errorf("expected %q, found %s", lit, p.peek())
	}
	return nil
}

func (p *Parser) expectIdent() (string, error) {
	t := p.peek()
	if t.Kind != IDENT {
		return "", p.errorf("expected identifier, found %s", t)
	}
	p.pos++
	return t.Lit, nil
}

// startsType reports whether the current token begins a type.
func (p *Parser) startsType() bool {
	t := p.peek()
	if t.Kind != KEYWORD {
		return false
	}
	switch t.Lit {
	case "int", "char", "void", "struct", "fnptr":
		return true
	}
	return false
}

// parseBaseType parses int/char/void/fnptr/struct NAME plus trailing '*'s
// (used for casts, sizeof and extern parameters, where C attaches the stars
// to the type).
func (p *Parser) parseBaseType() (*Type, error) {
	base, err := p.parseBaseRaw()
	if err != nil {
		return nil, err
	}
	for p.acceptPunct("*") {
		base = PtrTo(base)
	}
	return base, nil
}

// parseBaseRaw parses the base type without trailing '*'s; declarations
// attach stars per declarator (int *p, *q).
func (p *Parser) parseBaseRaw() (*Type, error) {
	t := p.next()
	if t.Kind != KEYWORD {
		return nil, p.errorf("expected type, found %s", t)
	}
	var base *Type
	switch t.Lit {
	case "int":
		base = IntType
	case "char":
		base = CharType
	case "void":
		base = VoidType
	case "fnptr":
		base = FnPtrType
	case "struct":
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		st, ok := p.structs[name]
		if !ok {
			return nil, p.errorf("unknown struct %q", name)
		}
		base = &Type{Kind: TStruct, Struct: st}
	default:
		return nil, p.errorf("expected type, found %s", t)
	}
	return base, nil
}

// parseDeclarator parses '*'* NAME followed by array suffixes, returning
// the final type (arrays wrap outermost-first, C style).
func (p *Parser) parseDeclarator(base *Type) (string, *Type, error) {
	for p.acceptPunct("*") {
		base = PtrTo(base)
	}
	name, err := p.expectIdent()
	if err != nil {
		return "", nil, err
	}
	var dims []int
	for p.acceptPunct("[") {
		t := p.next()
		if t.Kind != NUMBER {
			return "", nil, p.errorf("expected array length, found %s", t)
		}
		if t.Num <= 0 {
			return "", nil, p.errorf("array length must be positive")
		}
		dims = append(dims, int(t.Num))
		if err := p.expectPunct("]"); err != nil {
			return "", nil, err
		}
	}
	ty := base
	for i := len(dims) - 1; i >= 0; i-- {
		ty = ArrayOf(ty, dims[i])
	}
	if !ty.fits() {
		return "", nil, p.errorf("%q is larger than %d bytes", name, maxObjectSize)
	}
	return name, ty, nil
}

func (p *Parser) parseTopLevel() error {
	switch {
	case p.isKeyword("struct") && p.peekAt(2).Kind == PUNCT && p.peekAt(2).Lit == "{":
		return p.parseStructDef()
	case p.isKeyword("extern"):
		return p.parseExtern()
	}
	base, err := p.parseBaseRaw()
	if err != nil {
		return err
	}
	name, ty, err := p.parseDeclarator(base)
	if err != nil {
		return err
	}
	if p.isPunct("(") {
		return p.parseFunc(name, ty)
	}
	// Global variable(s).
	for {
		g := &GlobalDecl{Name: name, Type: ty}
		if p.acceptPunct("=") {
			t := p.peek()
			switch {
			case t.Kind == NUMBER || (t.Kind == PUNCT && t.Lit == "-" && p.peekAt(1).Kind == NUMBER):
				neg := p.acceptPunct("-")
				n := p.next()
				v := n.Num
				if neg {
					v = -v
				}
				g.InitNum = &v
			case t.Kind == STRING:
				p.pos++
				g.InitStr = t.Lit
				g.HasStr = true
			case t.Kind == CHARLIT:
				p.pos++
				v := t.Num
				g.InitNum = &v
			default:
				return p.errorf("unsupported global initializer %s", t)
			}
		}
		p.prog.Globals = append(p.prog.Globals, g)
		if p.acceptPunct(",") {
			name, ty, err = p.parseDeclarator(base)
			if err != nil {
				return err
			}
			continue
		}
		return p.expectPunct(";")
	}
}

func (p *Parser) parseStructDef() error {
	p.next() // struct
	name, err := p.expectIdent()
	if err != nil {
		return err
	}
	if _, dup := p.structs[name]; dup {
		return p.errorf("duplicate struct %q", name)
	}
	if err := p.expectPunct("{"); err != nil {
		return err
	}
	st := &StructType{Name: name}
	p.structs[name] = st // allow self-referential pointers
	for !p.acceptPunct("}") {
		base, err := p.parseBaseRaw()
		if err != nil {
			return err
		}
		for {
			fname, fty, err := p.parseDeclarator(base)
			if err != nil {
				return err
			}
			st.Fields = append(st.Fields, Field{Name: fname, Type: fty})
			if p.acceptPunct(",") {
				continue
			}
			break
		}
		if err := p.expectPunct(";"); err != nil {
			return err
		}
	}
	if err := p.expectPunct(";"); err != nil {
		return err
	}
	if err := st.Layout(); err != nil {
		return err
	}
	p.prog.Structs = append(p.prog.Structs, st)
	return nil
}

func (p *Parser) parseExtern() error {
	p.next() // extern
	ret, err := p.parseBaseType()
	if err != nil {
		return err
	}
	name, err := p.expectIdent()
	if err != nil {
		return err
	}
	if err := p.expectPunct("("); err != nil {
		return err
	}
	ext := &ExternDecl{Name: name, Ret: ret}
	if !p.acceptPunct(")") {
		for {
			if p.isPunct(".") && p.peekAt(1).Lit == "." && p.peekAt(2).Lit == "." {
				p.pos += 3
				ext.Variadic = true
				break
			}
			ty, err := p.parseBaseType()
			if err != nil {
				return err
			}
			// Optional parameter name.
			if p.peek().Kind == IDENT {
				p.pos++
			}
			ext.Params = append(ext.Params, ty)
			if !p.acceptPunct(",") {
				break
			}
		}
		if err := p.expectPunct(")"); err != nil {
			return err
		}
	}
	p.prog.Externs = append(p.prog.Externs, ext)
	return p.expectPunct(";")
}

func (p *Parser) parseFunc(name string, ret *Type) error {
	if err := p.expectPunct("("); err != nil {
		return err
	}
	fn := &FuncDecl{Name: name, Ret: ret}
	if !p.acceptPunct(")") {
		if p.isKeyword("void") && p.peekAt(1).Lit == ")" {
			p.pos += 2
		} else {
			for {
				base, err := p.parseBaseRaw()
				if err != nil {
					return err
				}
				pname, pty, err := p.parseDeclarator(base)
				if err != nil {
					return err
				}
				fn.Params = append(fn.Params, &VarDecl{Name: pname, Type: pty, Param: true})
				if !p.acceptPunct(",") {
					break
				}
			}
			if err := p.expectPunct(")"); err != nil {
				return err
			}
		}
	}
	if p.acceptPunct(";") {
		// Forward declaration: discard (names resolve against definitions,
		// which may appear in any order).
		return nil
	}
	body, err := p.parseBlock()
	if err != nil {
		return err
	}
	fn.Body = body
	p.prog.Funcs = append(p.prog.Funcs, fn)
	return nil
}

// --- statements ---

func (p *Parser) parseBlock() (*Block, error) {
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	b := &Block{}
	for !p.acceptPunct("}") {
		if p.atEOF() {
			return nil, p.errorf("unterminated block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		if multi, ok := s.(*multiStmt); ok {
			b.Stmts = append(b.Stmts, multi.list...)
		} else {
			b.Stmts = append(b.Stmts, s)
		}
	}
	return b, nil
}

// multiStmt carries several DeclStmts produced by `int a, b;`.
type multiStmt struct{ list []Stmt }

func (*multiStmt) stmt() {}

func (p *Parser) parseStmt() (Stmt, error) {
	switch {
	case p.isPunct("{"):
		return p.parseBlock()
	case p.startsType():
		return p.parseDeclStmt()
	case p.isKeyword("if"):
		return p.parseIf()
	case p.isKeyword("while"):
		return p.parseWhile()
	case p.isKeyword("for"):
		return p.parseFor()
	case p.isKeyword("switch"):
		return p.parseSwitch()
	case p.isKeyword("return"):
		p.next()
		r := &Return{}
		if !p.isPunct(";") {
			x, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			r.X = x
		}
		return r, p.expectPunct(";")
	case p.isKeyword("break"):
		p.next()
		return &Break{}, p.expectPunct(";")
	case p.isKeyword("continue"):
		p.next()
		return &Continue{}, p.expectPunct(";")
	case p.acceptPunct(";"):
		return &Block{}, nil
	}
	x, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &ExprStmt{X: x}, p.expectPunct(";")
}

func (p *Parser) parseDeclStmt() (Stmt, error) {
	base, err := p.parseBaseRaw()
	if err != nil {
		return nil, err
	}
	var out multiStmt
	for {
		name, ty, err := p.parseDeclarator(base)
		if err != nil {
			return nil, err
		}
		d := &DeclStmt{Var: &VarDecl{Name: name, Type: ty}}
		if p.acceptPunct("=") {
			init, err := p.parseAssignExpr()
			if err != nil {
				return nil, err
			}
			d.Init = init
		}
		out.list = append(out.list, d)
		if p.acceptPunct(",") {
			continue
		}
		break
	}
	if err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	if len(out.list) == 1 {
		return out.list[0], nil
	}
	return &out, nil
}

func (p *Parser) parseIf() (Stmt, error) {
	p.next()
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	then, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	s := &If{Cond: cond, Then: then}
	if p.acceptKeyword("else") {
		els, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		s.Else = els
	}
	return s, nil
}

func (p *Parser) parseWhile() (Stmt, error) {
	p.next()
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	return &While{Cond: cond, Body: body}, nil
}

func (p *Parser) parseFor() (Stmt, error) {
	p.next()
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	f := &For{}
	if !p.isPunct(";") {
		if p.startsType() {
			d, err := p.parseDeclStmt()
			if err != nil {
				return nil, err
			}
			f.Init = d
			goto cond // parseDeclStmt consumed the ';'
		}
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		f.Init = &ExprStmt{X: x}
	}
	if err := p.expectPunct(";"); err != nil {
		return nil, err
	}
cond:
	if !p.isPunct(";") {
		c, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		f.Cond = c
	}
	if err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	if !p.isPunct(")") {
		post, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		f.Post = post
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	f.Body = body
	return f, nil
}

func (p *Parser) parseSwitch() (Stmt, error) {
	p.next()
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	x, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	sw := &Switch{X: x}
	var curBody *[]Stmt
	for !p.acceptPunct("}") {
		switch {
		case p.acceptKeyword("case"):
			neg := p.acceptPunct("-")
			t := p.next()
			if t.Kind != NUMBER && t.Kind != CHARLIT {
				return nil, p.errorf("expected case constant, found %s", t)
			}
			v := t.Num
			if neg {
				v = -v
			}
			if err := p.expectPunct(":"); err != nil {
				return nil, err
			}
			c := &Case{Val: v}
			sw.Cases = append(sw.Cases, c)
			curBody = &c.Body
		case p.acceptKeyword("default"):
			if err := p.expectPunct(":"); err != nil {
				return nil, err
			}
			sw.Default = []Stmt{}
			curBody = &sw.Default
		default:
			if curBody == nil {
				return nil, p.errorf("statement before first case")
			}
			s, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			if multi, ok := s.(*multiStmt); ok {
				*curBody = append(*curBody, multi.list...)
			} else {
				*curBody = append(*curBody, s)
			}
		}
	}
	return sw, nil
}

// --- expressions ---

func (p *Parser) parseExpr() (Expr, error) { return p.parseAssignExpr() }

var compoundOps = map[string]string{
	"+=": "+", "-=": "-", "*=": "*", "/=": "/", "%=": "%",
	"&=": "&", "|=": "|", "^=": "^",
}

func (p *Parser) parseAssignExpr() (Expr, error) {
	l, err := p.parseBinary(0)
	if err != nil {
		return nil, err
	}
	t := p.peek()
	if t.Kind == PUNCT {
		if t.Lit == "=" {
			p.next()
			r, err := p.parseAssignExpr()
			if err != nil {
				return nil, err
			}
			return &Assign{L: l, R: r}, nil
		}
		if base, ok := compoundOps[t.Lit]; ok {
			p.next()
			r, err := p.parseAssignExpr()
			if err != nil {
				return nil, err
			}
			// Desugar a op= b into a = a op b. The lvalue is evaluated
			// twice; our benchmarks only use side-effect-free lvalues.
			return &Assign{L: l, R: &Binary{Op: base, L: l, R: r}}, nil
		}
	}
	return l, nil
}

// Binary operator precedence, C-like.
var precTable = []map[string]bool{
	{"||": true},
	{"&&": true},
	{"|": true},
	{"^": true},
	{"&": true},
	{"==": true, "!=": true},
	{"<": true, "<=": true, ">": true, ">=": true},
	{"<<": true, ">>": true},
	{"+": true, "-": true},
	{"*": true, "/": true, "%": true},
}

func (p *Parser) parseBinary(level int) (Expr, error) {
	if level >= len(precTable) {
		return p.parseUnary()
	}
	l, err := p.parseBinary(level + 1)
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.Kind != PUNCT || !precTable[level][t.Lit] {
			return l, nil
		}
		p.next()
		r, err := p.parseBinary(level + 1)
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: t.Lit, L: l, R: r}
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	t := p.peek()
	if t.Kind == PUNCT {
		switch t.Lit {
		case "-", "!", "~", "*", "&", "++", "--":
			p.next()
			x, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			return &Unary{Op: t.Lit, X: x}, nil
		case "(":
			// Cast?
			if p.peekAt(1).Kind == KEYWORD && p.peekAt(1).Lit != "sizeof" {
				p.next()
				ty, err := p.parseBaseType()
				if err != nil {
					return nil, err
				}
				if err := p.expectPunct(")"); err != nil {
					return nil, err
				}
				x, err := p.parseUnary()
				if err != nil {
					return nil, err
				}
				return &Cast{To: ty, X: x}, nil
			}
		}
	}
	if t.Kind == KEYWORD && t.Lit == "sizeof" {
		p.next()
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		s := &SizeofType{}
		if p.startsType() {
			ty, err := p.parseBaseType()
			if err != nil {
				return nil, err
			}
			s.Of = ty
		} else {
			x, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			s.X = x
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return s, nil
	}
	return p.parsePostfix()
}

func (p *Parser) parsePostfix() (Expr, error) {
	x, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.Kind != PUNCT {
			return x, nil
		}
		switch t.Lit {
		case "(":
			p.next()
			call := &Call{Fn: x}
			if !p.acceptPunct(")") {
				for {
					a, err := p.parseAssignExpr()
					if err != nil {
						return nil, err
					}
					call.Args = append(call.Args, a)
					if !p.acceptPunct(",") {
						break
					}
				}
				if err := p.expectPunct(")"); err != nil {
					return nil, err
				}
			}
			x = call
		case "[":
			p.next()
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct("]"); err != nil {
				return nil, err
			}
			x = &Index{Arr: x, Idx: idx}
		case ".":
			p.next()
			name, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			x = &Member{X: x, Name: name}
		case "->":
			p.next()
			name, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			x = &Member{X: x, Name: name, Arrow: true}
		case "++", "--":
			p.next()
			x = &Postfix{Op: t.Lit, X: x}
		default:
			return x, nil
		}
	}
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.Kind {
	case NUMBER:
		p.next()
		return &NumLit{Val: t.Num}, nil
	case CHARLIT:
		p.next()
		return &NumLit{Val: t.Num}, nil
	case STRING:
		p.next()
		return &StrLit{Val: t.Lit}, nil
	case IDENT:
		p.next()
		return &VarRef{Name: t.Lit}, nil
	case PUNCT:
		if t.Lit == "(" {
			p.next()
			x, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			return x, p.expectPunct(")")
		}
	}
	return nil, p.errorf("expected expression, found %s", t)
}
