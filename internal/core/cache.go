package core

import (
	"encoding/binary"
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
const PassVersion = "refine-7"

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
