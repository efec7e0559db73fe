package irexec

import "wytiwyg/internal/ir"

// CallFunc runs one activation of f as an entry call, outside Run: the
// steady-state call/ret path the benchmarks and allocation tests measure.
func CallFunc(ip *Interp, f *ir.Func, args, dest []uint32) error {
	return ip.call(ip.prog.entry(f), args, nil, nil, dest)
}
