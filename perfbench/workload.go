package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"

	"repro/internal/netrun"
	"repro/internal/transport"
	"repro/topk"
)

// engine selects how a workload's monitor is built.
type engine uint8

const (
	engSeq  engine = iota // sequential in-process engine
	engConc               // concurrent in-process engine (reference figure only)
	engTCP                // networked engine over loopback TCP, peers served in-process
	engTree               // coordinator tree over in-process pipes
)

// valueCap bounds every generated value: values lie in [1, valueCap).
// Positive values keep the ε check a plain ratio test, and 2^24·Nodes
// stays far inside the monitors' value domain at every size used here.
const valueCap = 1 << 24

// spec is one workload: the monitor it builds, the inputs it feeds it and
// how its loop is cut into chunks and windows.
type spec struct {
	name  string
	nodes int
	k     int
	eps   float64
	eng   engine
	peers int       // engTCP: serve loops, one link each
	tree  topk.Tree // engTree: coordinator tree shape

	dense   bool    // dense Observe redrawing every value; otherwise ObserveDelta
	updates int     // ObserveDelta: distinct nodes changed per call
	zipf    float64 // ObserveDelta: Zipf exponent of the node ids; 0 draws them uniformly
	walk    int64   // ObserveDelta: a changed value moves by a uniform step in [-walk, walk] ...
	band    int64   // ... reflecting inside [base-band, base+band] around the node's base
	rotate  int     // ObserveDelta: calls between rotations of the top set
	edge    int     // ObserveDelta: nodes walking across the top-k boundary inside the ε band, half of them in the top set

	queue     int // asynchronous ingest queue depth; 0 is synchronous
	procs     int // GOMAXPROCS while the workload runs; 0 keeps the default
	ckptEvery int // applied steps between automatic checkpoints; 0 disables them

	chunk  int // calls between untimed check points; async: calls per Drain barrier
	window int // latency samples per statistics window
	count  int // calls in the message-count window
	setups int // set-ups timed for setup_s; the last one runs the loop
}

// async reports whether the workload ingests through the queue and reads
// reports at Drain barriers.
func (sp *spec) async() bool { return sp.queue > 0 }

// workloads are the benchmark's workloads, named as in BENCHMARK.json.
// README.md records why each exists and what it exercises.
var workloads = map[string]*spec{
	"reset-seq": {
		name: "reset-seq", nodes: 1024, k: 8, eng: engSeq, dense: true,
		chunk: 50, window: 1000, count: 2000, setups: 101,
	},
	"quiet-tcp": {
		name: "quiet-tcp", nodes: 8192, k: 16, eng: engTCP, peers: 2,
		updates: 82, walk: 128, band: 1 << 16, rotate: 20000,
		chunk: 250, window: 20000, count: 120000, setups: 31,
	},
	"skew-tree-async": {
		name: "skew-tree-async", nodes: 65536, k: 16, eps: 0.05, eng: engTree,
		tree: topk.Tree{Branch: 2, Depth: 2}, updates: 64, zipf: 1.1, walk: 1 << 14, band: 1 << 18, rotate: 65536, edge: 16,
		queue: 65536, ckptEvery: 256, procs: 1,
		chunk: 64, window: 1024, count: 131072, setups: 9,
	},
}

// references are the README's reference figures: variants of the
// workloads above that answer one question each and are not gated.
var references = map[string]*spec{
	// ROADMAP's prove-or-remove question for the concurrent engine, on
	// reset-seq's inputs.
	"conc-reset": with(workloads["reset-seq"], func(s *spec) { s.name, s.eng, s.setups = "conc-reset", engConc, 5 }),
	// The shallow-queue regression of EXPERIMENTS.md E21: a depth-16
	// queue in front of the sequential engine, against a queue as deep
	// as the node count.
	"seq-depth16": with(workloads["quiet-tcp"], func(s *spec) {
		s.name, s.eng, s.queue, s.chunk, s.window, s.count, s.setups = "seq-depth16", engSeq, 16, 16, 1000, 20000, 5
	}),
	"seq-deep": with(workloads["quiet-tcp"], func(s *spec) {
		s.name, s.eng, s.queue, s.chunk, s.window, s.count, s.setups = "seq-deep", engSeq, 8192, 16, 1000, 20000, 5
	}),
	// Where a 10^6-node tree step spends its time: run with --trace 1.
	"tree-1e6": with(workloads["skew-tree-async"], func(s *spec) {
		s.name, s.nodes, s.ckptEvery, s.setups = "tree-1e6", 1_000_000, 0, 1
	}),
}

func with(base *spec, edit func(*spec)) *spec {
	s := *base
	edit(&s)
	return &s
}

// gen produces a workload's inputs from its seed alone. cur holds every
// node's value after the calls generated so far; it runs ahead of the
// checker, which replays the same updates onto its own copy.
//
// Dense calls redraw every value uniformly. Delta calls move values by a
// random walk that reflects inside a band around each node's base. The
// bases of the top group lie in [3/4, 1) of the value range, those of
// the other nodes in [0, 1/2), so walks never reorder the two groups and
// the top set changes only by rotation: every rotate calls one top node
// and one outsider swap bases, which costs exactly one filter reset.
// Violations thus come at a fixed rate on every seed, and every
// statistics window (a multiple of rotate calls) holds the same number.
//
// With sp.edge > 0 (ε workloads) the edge group sits between the two:
// edge nodes share the base edgeMid and walk within ±edgeHalf of it, a
// band narrower than ε, so the boundary of the top set runs through the
// group. Their walks cross the tightened per-level filters of the ε
// ladder and are absorbed there, but never leave the root filter: no
// edge value can exceed (resp. fall below) the (1±ε) band around any
// midpoint of two edge values.
type gen struct {
	sp       *spec
	r        *rand.Rand
	zipf     *rand.Zipf
	perm     []int // rank → node id: top group, then edge group, then the others; under Zipf rank is hotness
	top      int   // ranks in the top group: k less the edge nodes inside the top set
	cur      []int64
	base     []int64
	edgeHalf int64
	seen     []uint32
	stamp    uint32
	calls    int
	rotated  bool // the last call generated was a rotation
}

// edgeMid is the common base of the edge group, between the two other
// groups' value ranges.
const edgeMid = valueCap / 8 * 5

func newGen(sp *spec, seed uint64) *gen {
	// The stream depends on the seed alone, so a reference figure built on
	// a workload's shape sees exactly that workload's inputs.
	g := &gen{sp: sp, r: rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15)), cur: make([]int64, sp.nodes)}
	if sp.dense {
		for i := range g.cur {
			g.cur[i] = 1 + g.r.Int64N(valueCap-1)
		}
		return g
	}
	g.seen = make([]uint32, sp.nodes)
	g.perm = g.r.Perm(sp.nodes)
	g.base = make([]int64, sp.nodes)
	if sp.zipf > 0 {
		g.zipf = rand.NewZipf(g.r, sp.zipf, 1, uint64(sp.nodes-1))
	}
	// 0.4ε < ε/(2+ε): an edge value stays inside the root filter around
	// any midpoint of two edge values (see gen).
	g.edgeHalf = int64(0.4 * sp.eps * edgeMid)
	g.top = sp.k - sp.edge/2
	for rank, id := range g.perm {
		if rank >= g.top && rank < g.top+sp.edge {
			g.base[id] = edgeMid
			g.cur[id] = edgeMid - g.edgeHalf + g.r.Int64N(2*g.edgeHalf+1)
			continue
		}
		lo, hi := int64(1), int64(valueCap/2) // base ± band stays inside [lo, hi)
		if rank < g.top {
			lo, hi = valueCap/4*3, valueCap
		}
		g.base[id] = lo + sp.band + g.r.Int64N(hi-lo-2*sp.band)
		g.cur[id] = g.base[id]
	}
	return g
}

// next appends one call's input: all values for a dense call (ids stay
// untouched), or the strictly increasing changed ids and their new
// values for a delta call.
func (g *gen) next(ids []int, vals []int64) ([]int, []int64) {
	if g.sp.dense {
		for i := range g.cur {
			g.cur[i] = 1 + g.r.Int64N(valueCap-1)
		}
		return ids, append(vals, g.cur...)
	}
	g.stamp++
	start := len(ids)
	g.rotated = g.calls%g.sp.rotate == g.sp.rotate-1
	if g.rotated {
		n := g.calls / g.sp.rotate % g.top
		a, b := g.perm[n], g.perm[g.top+g.sp.edge+n]
		g.perm[n], g.perm[g.top+g.sp.edge+n] = b, a
		g.base[a], g.base[b] = g.base[b], g.base[a]
		for _, id := range []int{a, b} {
			g.cur[id] = g.base[id]
			g.seen[id] = g.stamp
			ids = append(ids, id)
		}
	}
	g.calls++
	for len(ids)-start < g.sp.updates {
		var id int
		if g.zipf != nil {
			id = g.perm[g.zipf.Uint64()]
		} else {
			id = g.r.IntN(g.sp.nodes)
		}
		if g.seen[id] != g.stamp {
			g.seen[id] = g.stamp
			ids = append(ids, id)
		}
	}
	slices.Sort(ids[start:])
	for _, id := range ids[start:] {
		band := g.sp.band
		if g.base[id] == edgeMid { // no other base lies between 1/2 and 3/4 of the range
			band = g.edgeHalf
		}
		v := g.cur[id] + g.r.Int64N(2*g.sp.walk+1) - g.sp.walk
		if lo := g.base[id] - band; v < lo {
			v = 2*lo - v
		} else if hi := g.base[id] + band; v > hi {
			v = 2*hi - v
		}
		g.cur[id] = v
		vals = append(vals, v)
	}
	return ids, vals
}

// rig is one built monitor with everything it owns.
type rig struct {
	mon   *topk.Monitor
	cfg   topk.Config // as given to New, for Restore
	store topk.CheckpointStore
	stop  func() error // closes the monitor and waits for its peers
}

// open builds the workload's monitor. With a tracer the TCP links and the
// checkpoint store are wrapped; the wrappers forward every call, so the
// monitor's framing and counters stay as they are.
func (sp *spec) open(seed uint64, tr *tracer) (*rig, error) {
	cfg := topk.Config{Nodes: sp.nodes, K: sp.k, Seed: seed, Epsilon: sp.eps}
	switch sp.eng {
	case engConc:
		cfg.Concurrent = true
	case engTree:
		cfg.Tree = sp.tree
	}
	if sp.queue > 0 {
		cfg.Ingest = topk.Ingest{QueueDepth: sp.queue, Overflow: topk.OverflowBlock}
	}
	r := &rig{}
	if sp.ckptEvery > 0 {
		r.store = topk.MemCheckpoints()
		if tr != nil {
			r.store = &tracedStore{s: r.store, tr: tr}
		}
		cfg.Checkpoint = topk.Checkpoint{Store: r.store, Every: sp.ckptEvery}
	}
	r.cfg = cfg
	if sp.eng == engTCP {
		return r, r.openTCP(sp.peers, tr)
	}
	mon, err := topk.New(cfg)
	if err != nil {
		return nil, err
	}
	r.mon = mon
	r.stop = func() error { mon.Close(); return nil }
	return r, nil
}

// openTCP serves peers on dialed loopback connections in this process, as
// `topkmon -join` does in its own, and builds the networked monitor over
// the accepted ends.
func (r *rig) openTCP(peers int, tr *tracer) error {
	ctx, cancel := context.WithCancel(context.Background())
	ln, err := transport.Listen(ctx, "127.0.0.1:0")
	if err != nil {
		cancel()
		return err
	}
	var wg sync.WaitGroup
	serveErrs := make(chan error, peers) // one send per serve loop
	abort := func(err error) error {
		ln.Close()
		cancel() // closes the dialed links, ending their serve loops
		wg.Wait()
		return err
	}
	for i := 0; i < peers; i++ {
		l, err := transport.Dial(ctx, ln.Addr())
		if err != nil {
			return abort(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			serveErrs <- netrun.Serve(l)
		}()
	}
	accepted, err := ln.AcceptN(peers)
	if err != nil {
		return abort(err)
	}
	links := make(linkSet, peers)
	for i, l := range accepted {
		links[i] = l
		if tr != nil {
			links[i] = &tracedLink{l: l, tr: tr}
		}
	}
	cfg := r.cfg
	cfg.Transport = links
	mon, err := topk.New(cfg)
	if err != nil {
		return abort(err)
	}
	r.mon = mon
	r.stop = func() error {
		mon.Close()
		abort(nil)
		close(serveErrs)
		for err := range serveErrs {
			if err != nil {
				return fmt.Errorf("peer serve loop: %w", err)
			}
		}
		return nil
	}
	return nil
}

// linkSet is a topk.Transport over already-connected links.
type linkSet []topk.Link

func (s linkSet) Links() []topk.Link { return s }

func (s linkSet) Close() error {
	for _, l := range s {
		l.Close()
	}
	return nil
}
