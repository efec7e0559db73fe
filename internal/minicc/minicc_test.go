package minicc

import (
	"strings"
	"testing"
)

func TestLexBasics(t *testing.T) {
	toks, err := LexAll(`int x = 0x1F; // comment
/* block */ char c = 'a'; s = "hi\n"; a <= b; p->q; i++;`)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, tk := range toks {
		switch tk.Kind {
		case KEYWORD:
			kinds = append(kinds, "kw:"+tk.Lit)
		case IDENT:
			kinds = append(kinds, "id:"+tk.Lit)
		case NUMBER:
			kinds = append(kinds, "num")
		case STRING:
			kinds = append(kinds, "str")
		case CHARLIT:
			kinds = append(kinds, "chr")
		case PUNCT:
			kinds = append(kinds, tk.Lit)
		}
	}
	want := "kw:int id:x = num ; kw:char id:c = chr ; id:s = str ; id:a <= id:b ; id:p -> id:q ; id:i ++ ;"
	if got := strings.Join(kinds, " "); got != want {
		t.Errorf("tokens:\n got %s\nwant %s", got, want)
	}
	if toks[3].Num != 0x1F {
		t.Errorf("hex literal = %d", toks[3].Num)
	}
}

func TestLexErrors(t *testing.T) {
	for _, src := range []string{"\"unterminated", "'a", "/* nope", "`", "'\\q'"} {
		if _, err := LexAll(src); err == nil {
			t.Errorf("LexAll(%q) succeeded", src)
		}
	}
}

func TestStructLayout(t *testing.T) {
	st := &StructType{Name: "p", Fields: []Field{
		{Name: "c", Type: CharType},
		{Name: "x", Type: IntType},
		{Name: "d", Type: CharType},
	}}
	if err := st.Layout(); err != nil {
		t.Fatal(err)
	}
	if st.Fields[0].Offset != 0 || st.Fields[1].Offset != 4 || st.Fields[2].Offset != 8 {
		t.Errorf("offsets: %+v", st.Fields)
	}
	ty := &Type{Kind: TStruct, Struct: st}
	if ty.Size() != 12 {
		t.Errorf("size = %d", ty.Size())
	}
	if ty.Align() != 4 {
		t.Errorf("align = %d", ty.Align())
	}
}

func TestTypeBasics(t *testing.T) {
	if IntType.Size() != 4 || CharType.Size() != 1 || PtrTo(IntType).Size() != 4 {
		t.Error("scalar sizes wrong")
	}
	arr := ArrayOf(IntType, 10)
	if arr.Size() != 40 {
		t.Errorf("array size = %d", arr.Size())
	}
	if !arr.Decay().Equal(PtrTo(IntType)) {
		t.Error("array decay wrong")
	}
	nested := ArrayOf(ArrayOf(IntType, 4), 4)
	if nested.Size() != 64 {
		t.Errorf("nested array size = %d", nested.Size())
	}
	if PtrTo(IntType).Equal(PtrTo(CharType)) {
		t.Error("distinct pointers equal")
	}
	if s := nested.String(); s != "int[4][4]" {
		t.Errorf("nested array string = %q", s)
	}
}

const egProgram = `
extern int printf(char *fmt, ...);

struct point { int x; int y; };

int g_total = 5;
char g_name[8];

int helper(int a, int b) {
	return a + b * 2;
}

int main() {
	int i;
	int arr[10];
	struct point p;
	struct point *pp;
	char buf[4];
	for (i = 0; i < 10; i++) {
		arr[i] = helper(i, g_total);
	}
	p.x = arr[2];
	p.y = 0;
	pp = &p;
	pp->y = p.x + 1;
	buf[0] = 'z';
	if (p.x > 3 && pp->y != 0) {
		printf("%d %c\n", pp->y, buf[0]);
	} else {
		printf("small\n");
	}
	while (i > 0) {
		i = i - 1;
		if (i == 3) break;
	}
	switch (i) {
	case 3: i += 10; break;
	case 4: i = 0; break;
	default: i = -1;
	}
	return i;
}
`

func TestParseAndCheckProgram(t *testing.T) {
	prog, err := Compile(egProgram)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Funcs) != 2 || len(prog.Globals) != 2 || len(prog.Externs) != 1 {
		t.Fatalf("decls: %d funcs %d globals %d externs",
			len(prog.Funcs), len(prog.Globals), len(prog.Externs))
	}
	mainFn := prog.FindFunc("main")
	if mainFn == nil {
		t.Fatal("no main")
	}
	if len(mainFn.Locals) != 5 {
		t.Errorf("locals = %d", len(mainFn.Locals))
	}
	// arr, p and buf are memory objects; i and pp are candidates for
	// registers (pp's address is never taken; note &p marks p, not pp).
	byName := map[string]*VarDecl{}
	for _, v := range mainFn.Locals {
		byName[v.Name] = v
	}
	if !byName["arr"].AddrTaken || !byName["p"].AddrTaken || !byName["buf"].AddrTaken {
		t.Error("aggregates not marked address-taken")
	}
	if byName["i"].AddrTaken {
		t.Error("i wrongly marked address-taken")
	}
	if byName["pp"].AddrTaken {
		t.Error("pp wrongly marked address-taken")
	}
}

func TestCheckPointerArithmeticTypes(t *testing.T) {
	prog, err := Compile(`
int f() {
	int a[4];
	int *p;
	int *q;
	int d;
	p = &a[1];
	q = p + 2;
	d = q - p;
	return d + *q;
}
`)
	if err != nil {
		t.Fatal(err)
	}
	_ = prog
}

func TestCheckSizeof(t *testing.T) {
	prog, err := Compile(`
struct s { int a; char b; };
int f() {
	int arr[6];
	return sizeof(arr) + sizeof(int) + sizeof(struct s);
}
`)
	if err != nil {
		t.Fatal(err)
	}
	_ = prog
}

func TestCheckFnPtr(t *testing.T) {
	_, err := Compile(`
int inc(int x) { return x + 1; }
int dec(int x) { return x - 1; }
int apply(fnptr f, int v) { return f(v); }
int main() {
	fnptr g;
	g = &inc;
	return apply(g, 1) + apply(&dec, 5);
}
`)
	if err != nil {
		t.Fatal(err)
	}
}

// BadCheckSrcs are invalid programs Compile must reject (exported for the
// fuzz seeds in package minicc_test).
var BadCheckSrcs = []string{
	`int f() { return x; }`,                                              // undefined ident
	`int f() { int a; a = "s"; return 0; }`,                              // string to int
	`int f(int a) { a(); return 0; }`,                                    // call non-fn
	`int f() { int a[2]; return a; }`,                                    // array return (ptr to int mismatch)
	`void f() { return 1; }`,                                             // value in void fn
	`int f() { return; }`,                                                // missing value
	`int f() { 1 = 2; return 0; }`,                                       // not lvalue
	`int f() { int *p; p = 5; return 0; }`,                               // int to ptr
	`int f() { struct q s; return 0; }`,                                  // unknown struct
	`struct s { int a; }; int f() { struct s v; return v.b; }`,           // no field
	`int f() { int a; int a; return 0; }`,                                // redeclared
	`int f() { switch (1) { case 1: break; case 1: break; } return 0; }`, // dup case
	`int g(int a) { return a; } int f() { return g(); }`,                 // arity
	`int f() { void *p; return *p; }`,                                    // deref void*
}

func TestCheckErrors(t *testing.T) {
	for _, src := range BadCheckSrcs {
		if _, err := Compile(src); err == nil {
			t.Errorf("accepted invalid program: %s", src)
		}
	}
}

// BadParseSrcs are sources Parse must reject (exported for the fuzz seeds
// in package minicc_test).
var BadParseSrcs = []string{
	`int f( { return 0; }`,
	`int f() { if return; }`,
	`int f() { int a[0]; return 0; }`,
	`int f() { for (;; { } return 0; }`,
	`int 3x() { return 0; }`,
	`int f() { return 1 +; }`,
	`int f() { switch(1) { foo; } return 0; }`,
	`struct s { int a; } int f() { return 0; }`, // missing ; after struct
}

func TestParseErrors(t *testing.T) {
	for _, src := range BadParseSrcs {
		if _, err := Parse(src); err == nil {
			t.Errorf("parsed invalid program: %s", src)
		}
	}
}

func TestParseNestedArrays(t *testing.T) {
	prog, err := Compile(`
int f() {
	int m[4][4];
	int i;
	for (i = 0; i < 4; i++) {
		m[i][0] = i;
		m[i][3] = i * 2;
	}
	return m[2][3];
}
`)
	if err != nil {
		t.Fatal(err)
	}
	v := prog.Funcs[0].Locals[0]
	if v.Type.Size() != 64 {
		t.Errorf("m size = %d", v.Type.Size())
	}
}

func TestParseCompoundAndIncDec(t *testing.T) {
	_, err := Compile(`
int f() {
	int i = 3;
	int j;
	i += 4;
	i -= 1;
	i *= 2;
	j = i++;
	j = ++i;
	j = i--;
	--i;
	return i + j;
}
`)
	if err != nil {
		t.Fatal(err)
	}
}

func TestParseComma(t *testing.T) {
	prog, err := Compile(`
int f() {
	int a = 1, b = 2, *p;
	p = &a;
	return a + b + *p;
}
`)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(prog.Funcs[0].Locals); n != 3 {
		t.Errorf("locals = %d", n)
	}
}

func TestGlobalInitializers(t *testing.T) {
	prog, err := Compile(`
int a = 5;
int b = -3;
char c = 'x';
char *s = "hello";
int arr[4];
int main() { return a + b + c + arr[0]; }
`)
	if err != nil {
		t.Fatal(err)
	}
	if *prog.Globals[0].InitNum != 5 || *prog.Globals[1].InitNum != -3 {
		t.Error("int initializers wrong")
	}
	if *prog.Globals[2].InitNum != 'x' {
		t.Error("char initializer wrong")
	}
	if !prog.Globals[3].HasStr || prog.Globals[3].InitStr != "hello" {
		t.Error("string initializer wrong")
	}
}

func TestVariadicExternArity(t *testing.T) {
	if _, err := Compile(`
extern int printf(char *fmt, ...);
int main() { printf("%d %d\n", 1, 2); return 0; }
`); err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(`
extern int printf(char *fmt, ...);
int main() { printf(); return 0; }
`); err == nil {
		t.Error("too-few-args call accepted")
	}
}
