package minicc_test

import (
	"strings"
	"testing"

	"wytiwyg/internal/minicc"
)

// parseErrorCases are malformed sources the parser or checker must reject.
var parseErrorCases = []struct {
	name string
	src  string
}{
	{"garbage", "@#$%^&"},
	{"unterminated-string", `int main() { return "abc; }`},
	{"unterminated-char", `int main() { return 'a; }`},
	{"unterminated-comment", "/* no end\nint main() { return 0; }"},
	{"missing-semicolon", "int main() { int x = 1 return x; }"},
	{"missing-brace", "int main() { if (1) { return 0; }"},
	{"missing-paren", "int main( { return 0; }"},
	{"bad-toplevel", "return 0;"},
	{"type-only", "int;"},
	{"struct-no-name-no-body", "struct;"},
	{"array-no-size", "int main() { int a[]; return 0; }"},
	{"call-unclosed", "int main() { return f(1, 2; }"},
	{"assign-to-literal-chain", "int main() { 3 = = 4; }"},
	{"stray-else", "int main() { else { return 1; } }"},
	{"case-outside-switch", "int main() { case 3: return 1; }"},
	{"dangling-binop", "int main() { return 1 + ; }"},
	{"double-return-type", "int int main() { return 0; }"},
	// Objects whose byte size does not fit in int32 (frame displacements
	// are int32); the sizes used to wrap in 32-bit arithmetic.
	{"local-array-wraps", "int main() { int a[1073741825]; a[1] = 99; return a[3]; }"},
	{"local-array-wraps-to-zero", "int main() { int a[1073741824]; return 0; }"},
	{"local-array-2d-wraps", "int main() { int a[65536][16385]; return 0; }"},
	{"local-array-2gib", "int main() { int a[536870912]; return 0; }"},
	{"locals-sum-over-int32", "int main() { char a[2000000000]; char b[2000000000]; b[0] = 1; return a[0]; }"},
	{"global-array-wraps", "int g[1073741825]; int main() { return g[0]; }"},
	{"struct-field-wraps", "struct s { int x[1073741825]; }; int main() { return 0; }"},
	{"struct-total-over-int32", "struct s { char a[2147483647]; char b; }; int main() { return 0; }"},
	// Globals past the data section would overlap the inputs and the heap.
	{"global-past-data-section", "int g[67108865]; int main() { return g[0]; }"},
	{"globals-sum-past-data-section", "char a[100000000]; char b[100000000]; int main() { return a[0] + b[0]; }"},
}

// Malformed source must produce errors, never panics, and the error should
// carry enough position or token context to locate the problem.
func TestParseErrors(t *testing.T) {
	for _, c := range parseErrorCases {
		t.Run(c.name, func(t *testing.T) {
			prog, err := minicc.Parse(c.src)
			if err == nil {
				err = minicc.Check(prog)
			}
			if err == nil {
				t.Fatalf("accepted malformed source:\n%s", c.src)
			}
		})
	}
}

// checkErrorCases are semantically wrong programs the checker must reject.
var checkErrorCases = []struct {
	name string
	src  string
	want string // substring expected in the error, "" for any
}{
	{"undefined-var", "int main() { return nope; }", "nope"},
	{"undefined-fn", "int main() { return nope(1); }", "nope"},
	{"redefined-fn", "int f() { return 1; } int f() { return 2; } int main() { return f(); }", "f"},
	{"void-in-expr", "void g() {} int main() { return g() + 1; }", ""},
	{"deref-int", "int main() { int x; return *x; }", ""},
	{"member-of-int", "int main() { int x; return x.y; }", ""},
	{"unknown-member", "struct s { int a; }; int main() { struct s v; return v.b; }", ""},
	{"globals-past-data-section", "char a[100000000]; char big[100000000]; int main() { return 0; }", "big"},
}

// Semantically wrong programs must fail the checker.
func TestCheckErrors(t *testing.T) {
	for _, c := range checkErrorCases {
		t.Run(c.name, func(t *testing.T) {
			prog, err := minicc.Parse(c.src)
			if err == nil {
				err = minicc.Check(prog)
			}
			if err == nil {
				t.Fatalf("accepted bad program:\n%s", c.src)
			}
			if c.want != "" && !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

// An empty translation unit is legal C and must parse and check cleanly —
// it only fails later, at code generation, for want of a main.
func TestEmptyUnitParses(t *testing.T) {
	prog, err := minicc.Parse("")
	if err != nil {
		t.Fatalf("empty unit rejected by parser: %v", err)
	}
	if err := minicc.Check(prog); err != nil {
		t.Fatalf("empty unit rejected by checker: %v", err)
	}
}

// Deeply nested expressions must not blow the parser's stack: either a
// clean parse or a clean error.
func TestDeepNesting(t *testing.T) {
	depth := 2000
	src := "int main() { return " + strings.Repeat("(", depth) + "1" +
		strings.Repeat(")", depth) + "; }"
	if _, err := minicc.Parse(src); err != nil {
		t.Logf("deep nesting rejected cleanly: %v", err)
	}
}
