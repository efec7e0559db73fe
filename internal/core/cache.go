package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"wytiwyg/internal/isa"
	"wytiwyg/internal/machine"
	"wytiwyg/internal/obj"
	"wytiwyg/internal/refcache"
)

// PassVersion identifies the semantics of the refinement passes. It is part
// of every cache key: bumping it when a refinement, the lifter or a
// verification check changes behaviour invalidates all prior entries
// without touching the cache on disk.
const PassVersion = "refine-5"

// encodeInputs serializes an input set deterministically for hashing.
func encodeInputs(inputs []machine.Input) []byte {
	var out []byte
	u32 := func(v uint32) { out = binary.LittleEndian.AppendUint32(out, v) }
	u32(uint32(len(inputs)))
	for _, in := range inputs {
		u32(uint32(len(in.Ints)))
		for _, v := range in.Ints {
			u32(uint32(v))
		}
		u32(uint32(len(in.Strs)))
		for _, s := range in.Strs {
			u32(uint32(len(s)))
			out = append(out, s...)
		}
	}
	return out
}

// encodeImage serializes the parts of an image that refinement results
// depend on: the instruction stream, the data section, the entry point and
// the external-function bindings.
func encodeImage(img *obj.Image) []byte {
	out := isa.EncodeAll(img.Code)
	out = binary.LittleEndian.AppendUint32(out, img.Entry)
	out = append(out, img.Data...)
	exts := make([]uint32, 0, len(img.Externs))
	for a := range img.Externs {
		exts = append(exts, a)
	}
	sort.Slice(exts, func(i, j int) bool { return exts[i] < exts[j] })
	for _, a := range exts {
		out = binary.LittleEndian.AppendUint32(out, a)
		out = append(out, img.Externs[a]...)
		out = append(out, 0)
	}
	return out
}

// ProgramKey is the content address of a whole binary's refinement outcome
// under opts: it covers the pass version, the options that change the
// outcome, the input set and the full image. This is the one place that
// decides which options are part of the key: the verification mode (an
// entry records the report of the mode it ran under), the value-set
// analysis and type-recovery stages (their findings are part of the
// report) and static cold-code recovery (it changes the recovered layout
// and the report). Jobs, Cache and Observer never change the outcome and
// stay out of the key.
func ProgramKey(img *obj.Image, inputs []machine.Input, opts Options) refcache.Key {
	flag := func(b bool) byte {
		if b {
			return 1
		}
		return 0
	}
	return refcache.NewKey("program",
		[]byte(PassVersion),
		[]byte{byte(opts.Lint), flag(opts.VSA), flag(opts.StaticRecover), flag(opts.Types)},
		encodeInputs(inputs),
		encodeImage(img),
	)
}

// programKey is ProgramKey over the pipeline's own image, inputs and
// options.
func (p *Pipeline) programKey() refcache.Key {
	return ProgramKey(p.Img, p.Inputs, p.Options)
}

// funcBytes serializes one recovered function's machine code: each traced
// block's start address followed by its encoded instructions. The traced
// block set is part of the content — the same bytes reached by different
// control flow are a different function to the refinement.
func (p *Pipeline) funcBytes(entry uint32) []byte {
	fr := p.Rec.ByEntry[entry]
	if fr == nil {
		return nil
	}
	var out []byte
	var buf [isa.InstrSize]byte
	for _, start := range fr.Blocks {
		b := p.CFG.Blocks[start]
		if b == nil {
			continue
		}
		out = binary.LittleEndian.AppendUint32(out, start)
		lo := (start - isa.CodeBase) / isa.InstrSize
		hi := (b.End - isa.CodeBase) / isa.InstrSize
		for i := lo; i <= hi && int(i) < len(p.Img.Code); i++ {
			isa.Encode(buf[:], &p.Img.Code[i])
			out = append(out, buf[:]...)
		}
	}
	return out
}

// funcKey is the content address of one function's refinement outcome. It
// covers the pass version, the input set, the function's own traced code
// and a digest of every direct callee observed during tracing (internal
// callees by their code, external ones by name) — the interprocedural
// facts a function's refinement consumes (saved-register classes, argument
// slots, variadic signatures) are derived from exactly those callees'
// behaviour. Deeper indirect dependencies are deliberately not hashed;
// this is the precision/reuse tradeoff of incremental lifting, and the
// entries only feed the per-function verification findings, never the IR.
func (p *Pipeline) funcKeyFor(name string, entry uint32) refcache.Key {
	own := p.funcBytes(entry)
	// Collect direct callees from the trace's observed call edges that
	// originate inside this function's blocks; a call always ends its block.
	var callees []uint32
	var extNames []string
	if fr := p.Rec.ByEntry[entry]; fr != nil {
		for _, start := range fr.Blocks {
			if b := p.CFG.Blocks[start]; b != nil && b.CallSite {
				callees = append(callees, p.Trace.Targets(b.End)...)
				extNames = append(extNames, p.Trace.ExtCall(b.End)...)
			}
		}
	}
	slices.Sort(callees)
	callees = slices.Compact(callees)
	sort.Strings(extNames)
	h := sha256.New()
	for _, a := range callees {
		h.Write(p.funcBytes(a))
	}
	for _, n := range extNames {
		fmt.Fprintf(h, "%d:%s", len(n), n)
	}
	return refcache.NewKey("func",
		[]byte(PassVersion),
		encodeInputs(p.Inputs),
		[]byte(name),
		own,
		h.Sum(nil),
	)
}

// RecoverLayout is the cached front door of the pipeline: recover the
// binary's stack layout and verification report, serving both from the
// cache when the program key hits (skipping tracing, lifting and every
// refinement) and running — then recording — the full pipeline otherwise.
// On a cache hit the returned pipeline has FromCache set and carries only
// the layout and report; the IR-level fields are nil.
func RecoverLayout(img *obj.Image, inputs []machine.Input, opts Options) (*Pipeline, error) {
	if len(inputs) == 0 {
		inputs = []machine.Input{{}}
	}
	if opts.Cache != nil {
		key := ProgramKey(img, inputs, opts)
		if e, ok := opts.Cache.GetProgram(key); ok {
			p := newPipeline(img, inputs, opts)
			p.FromCache = true
			prog, rep := refcache.LayoutFromProgram(e)
			p.Recovered = prog
			if opts.Lint != LintOff {
				p.Report = rep
				if err := p.lintGate("cached"); err != nil {
					return p, err
				}
			}
			return p, nil
		}
	}
	p, err := LiftBinaryOpts(img, inputs, opts)
	if err != nil {
		return nil, err
	}
	if err := p.Refine(); err != nil {
		return nil, err
	}
	return p, nil
}
