// Package vsa implements a value-set analysis (VSA) over the lifted IR: an
// abstract interpretation that computes, for every SSA value and every
// abstract memory location, the set of values it may hold, represented as
// strided intervals partitioned by memory region (numeric/global, one
// region per stack object, and a heap summary).
//
// The analysis serves four consumers. The alias Oracle answers the
// optimizer's MustNotAlias queries, which keep forwarded values live
// across accesses the syntactic escape analysis cannot separate. The
// layout verifier (Check), the lint's stack-access check (LintFunc),
// flags recovered slots whose statically-proven access region crosses a
// slot boundary — the over-splitting signature of incomplete trace
// coverage — or cannot be bounded, and accesses proven to leave their
// slot or frame. Type recovery reads the Oracle's strided frame facts (StrideOf).
// The admission gate (Admit) accepts a statically recovered cold function
// only when every frame access is proven to stay inside a known slot.
//
// Soundness rests on the interpreter's memory map (see isa/layout.go and
// irexec.NativeStackTop): code, globals and the heap bump allocator live
// below the native-stack region that backs symbolized stack objects, and
// distinct allocas occupy disjoint storage within an activation. Every
// verdict is over-approximate: the analysis only separates two accesses
// when their value sets cannot overlap in any region.
package vsa
