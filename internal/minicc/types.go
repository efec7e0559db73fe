package minicc

import (
	"fmt"
	"math"
)

// TypeKind discriminates Type.
type TypeKind uint8

// Type kinds.
const (
	TInt TypeKind = iota
	TChar
	TVoid
	TPtr
	TArray
	TStruct
	TFnPtr // opaque function pointer
)

// Type describes a mini-C type.
type Type struct {
	Kind   TypeKind    // which type this is
	Elem   *Type       // TPtr, TArray
	Len    int         // TArray
	Struct *StructType // TStruct
}

// Singleton basic types.
var (
	IntType   = &Type{Kind: TInt}
	CharType  = &Type{Kind: TChar}
	VoidType  = &Type{Kind: TVoid}
	FnPtrType = &Type{Kind: TFnPtr}
)

// PtrTo returns a pointer type.
func PtrTo(t *Type) *Type { return &Type{Kind: TPtr, Elem: t} }

// ArrayOf returns an array type.
func ArrayOf(t *Type, n int) *Type { return &Type{Kind: TArray, Elem: t, Len: n} }

// StructType is a named struct with laid-out fields.
type StructType struct {
	Name   string  // struct tag
	Fields []Field // members, in declaration order
	size   uint32
	align  uint32
}

// Field is one struct member.
type Field struct {
	Name   string // member name
	Type   *Type  // member type
	Offset uint32 // byte offset within the struct
}

// FieldByName finds a member.
func (s *StructType) FieldByName(name string) (*Field, bool) {
	for i := range s.Fields {
		if s.Fields[i].Name == name {
			return &s.Fields[i], true
		}
	}
	return nil, false
}

// maxObjectSize bounds the byte size of every variable, struct and struct
// field, and of each function's locals together: memory-operand
// displacements are int32, so a larger object would wrap its own layout.
const maxObjectSize = math.MaxInt32

// fits reports whether the type's size is at most maxObjectSize. It
// computes the size without wraparound, so it is the check that makes Size
// exact; struct types were already bounded by Layout.
func (t *Type) fits() bool {
	if t.Kind != TArray {
		return true
	}
	return t.Elem.fits() && uint64(t.Len) <= maxObjectSize/max(uint64(t.Elem.Size()), 1)
}

// Layout computes field offsets, size and alignment. Each field's size is
// exact (the parser bounds every declarator); Layout rejects a struct whose
// total exceeds maxObjectSize.
func (s *StructType) Layout() error {
	var off uint64
	maxAlign := uint32(1)
	for i := range s.Fields {
		f := &s.Fields[i]
		a := f.Type.Align()
		if a > maxAlign {
			maxAlign = a
		}
		off = (off + uint64(a) - 1) &^ uint64(a-1)
		f.Offset = uint32(off)
		sz := f.Type.Size()
		if sz == 0 {
			return fmt.Errorf("minicc: field %s.%s has zero size", s.Name, f.Name)
		}
		off += uint64(sz)
	}
	off = (off + uint64(maxAlign) - 1) &^ uint64(maxAlign-1)
	if off > maxObjectSize {
		return fmt.Errorf("minicc: struct %s is larger than %d bytes", s.Name, maxObjectSize)
	}
	s.size = uint32(off)
	s.align = maxAlign
	return nil
}

// Size returns the size in bytes of a value of this type. It is exact for
// every declared type: declarations larger than maxObjectSize are rejected.
func (t *Type) Size() uint32 {
	switch t.Kind {
	case TInt, TPtr, TFnPtr:
		return 4
	case TChar:
		return 1
	case TVoid:
		return 0
	case TArray:
		return t.Elem.Size() * uint32(t.Len)
	case TStruct:
		return t.Struct.size
	}
	return 0
}

// Align returns the alignment requirement in bytes.
func (t *Type) Align() uint32 {
	switch t.Kind {
	case TInt, TPtr, TFnPtr:
		return 4
	case TChar:
		return 1
	case TArray:
		return t.Elem.Align()
	case TStruct:
		return t.Struct.align
	}
	return 1
}

// IsScalar reports whether values fit in a register (int, char, pointers).
func (t *Type) IsScalar() bool {
	switch t.Kind {
	case TInt, TChar, TPtr, TFnPtr:
		return true
	}
	return false
}

// IsInteger reports int/char.
func (t *Type) IsInteger() bool { return t.Kind == TInt || t.Kind == TChar }

// Decay converts arrays to element pointers (as in C expression contexts).
func (t *Type) Decay() *Type {
	if t.Kind == TArray {
		return PtrTo(t.Elem)
	}
	return t
}

// Equal reports structural type equality.
func (t *Type) Equal(o *Type) bool {
	if t == o {
		return true
	}
	if t == nil || o == nil || t.Kind != o.Kind {
		return false
	}
	switch t.Kind {
	case TPtr:
		return t.Elem.Equal(o.Elem)
	case TArray:
		return t.Len == o.Len && t.Elem.Equal(o.Elem)
	case TStruct:
		return t.Struct == o.Struct
	}
	return true
}

func (t *Type) String() string {
	if t == nil {
		return "<nil>"
	}
	switch t.Kind {
	case TInt:
		return "int"
	case TChar:
		return "char"
	case TVoid:
		return "void"
	case TFnPtr:
		return "fnptr"
	case TPtr:
		return t.Elem.String() + "*"
	case TArray:
		return fmt.Sprintf("%s[%d]", t.Elem, t.Len)
	case TStruct:
		return "struct " + t.Struct.Name
	}
	return "?"
}
