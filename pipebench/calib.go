package main

import (
	"encoding/json"
	"math/rand"
	"runtime/debug"
	"strconv"
	"time"
)

// The host this benchmark runs on is shared, and its speed drifts by a
// third or more, with a correlation time of about ten seconds: runs of the
// same code minutes apart differ more than any bound worth setting. So
// every end-to-end time is reported in reference seconds: the measured
// time scaled by how much slower or faster the host ran a fixed probe
// during the same run than the reference host did. The probe is the
// benchmark's own code and runs between passes, while the recompiler is
// idle, so a change to the recompiler cannot move it; only the host's
// speed does.

// probeRefSeconds is the median time of one probe sample on the reference
// host (a 2-vCPU Intel Xeon VM, Go 1.24).
const probeRefSeconds = 0.030

// probeSamples is how many samples are taken before the first pass and
// after each pass. A run's scale is probeRefSeconds over the median of all
// its samples.
const probeSamples = 8

// Probe sizes. Each of the three parts of a sample (kernel, roundTrip,
// build) runs for about 10 ms on the reference host.
const (
	chaseLen   = 1 << 20 // entries of the pointer-chase cycle (4 MiB)
	chaseSteps = 60_000
	mapKeys    = 1 << 14
	loopSteps  = 600_000
	treeDepth  = 5 // a JSON tree of 4^0+...+4^5 = 1365 nodes
	listLen    = 40_000
)

// speedProbe runs the kinds of work the recompiler is made of, one after
// another on one goroutine: dependent loads that miss the caches, hashing
// into a map, a branchy interpreter loop, a reflective JSON round trip,
// and building and walking a linked structure of fresh small objects.
// Sampling turns the garbage collector off and starts from an empty heap,
// so the probe's time does not depend on what the recompiler left behind.
type speedProbe struct {
	next []uint32
	m    map[uint32]uint32
	code []byte
	doc  []byte
	sink uint32
}

// probeNode is one node of the JSON tree.
type probeNode struct {
	Name  string
	Vals  []int
	Attrs map[string]string
	Kids  []*probeNode
}

func probeTree(depth, id int) *probeNode {
	n := &probeNode{Name: "n" + strconv.Itoa(id), Vals: []int{id, 3 * id, 7 * id},
		Attrs: map[string]string{"depth": strconv.Itoa(depth), "kind": "node"}}
	if depth > 0 {
		for i := 0; i < 4; i++ {
			n.Kids = append(n.Kids, probeTree(depth-1, 4*id+i))
		}
	}
	return n
}

// probeItem is one object of the linked structure.
type probeItem struct {
	key  int
	next *probeItem
	buf  []byte
}

func newSpeedProbe() *speedProbe {
	rng := rand.New(rand.NewSource(1))
	perm := rng.Perm(chaseLen)
	p := &speedProbe{next: make([]uint32, chaseLen), m: make(map[uint32]uint32, mapKeys),
		code: make([]byte, 4096)}
	for i := range perm {
		p.next[perm[i]] = uint32(perm[(i+1)%chaseLen])
	}
	for i := range p.code {
		p.code[i] = byte(rng.Intn(4))
	}
	var err error
	if p.doc, err = json.Marshal(probeTree(treeDepth, 1)); err != nil {
		panic(err)
	}
	p.samples() // warm the caches and the map buckets
	return p
}

// samples takes probeSamples samples, in seconds.
func (p *speedProbe) samples() []float64 {
	debug.FreeOSMemory()
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // off now, restored on return
	out := make([]float64, probeSamples)
	for i := range out {
		t0 := time.Now()
		p.kernel()
		p.roundTrip()
		p.build()
		out[i] = time.Since(t0).Seconds()
	}
	return out
}

func (p *speedProbe) kernel() {
	x := p.sink % chaseLen
	for i := 0; i < chaseSteps; i++ {
		x = p.next[x]
	}
	clear(p.m)
	for i := uint32(0); i < mapKeys; i++ {
		p.m[(i*2654435761^x)&(4*mapKeys-1)] += i
	}
	acc := x + p.m[x&(4*mapKeys-1)]
	for i := 0; i < loopSteps; i++ {
		switch p.code[i&4095] {
		case 0:
			acc = acc*31 + uint32(i)
		case 1:
			acc ^= acc >> 7
		case 2:
			acc += acc << 3
		default:
			if acc&1 == 0 {
				acc--
			}
		}
	}
	p.sink = acc
}

func (p *speedProbe) roundTrip() {
	var n probeNode
	if err := json.Unmarshal(p.doc, &n); err != nil {
		panic(err)
	}
	if _, err := json.Marshal(&n); err != nil {
		panic(err)
	}
}

func (p *speedProbe) build() {
	m := make(map[int]*probeItem)
	var head *probeItem
	for i := 0; i < listLen; i++ {
		head = &probeItem{key: i, next: head, buf: make([]byte, 64)}
		m[i*7919] = head
	}
	for it := head; it != nil; it = it.next {
		p.sink += uint32(it.key+len(it.buf)) & 1
	}
}
