package irexec

import (
	"testing"
	"unsafe"
)

// The hot loop walks insts sequentially; a compiled instruction that grew
// past 48 bytes ran measurably slower, so the hook bit shares the flags
// byte with the load's signedness instead of adding a field.
func TestInstSize(t *testing.T) {
	if n := unsafe.Sizeof(inst{}); n != 48 {
		t.Errorf("inst is %d bytes, want 48", n)
	}
}
