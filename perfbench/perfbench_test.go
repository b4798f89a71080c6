package main

import (
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
)

// TestShortRuns runs every workload for a few hundred calls with every
// check on, untraced and traced, timing two set-ups instead of many.
func TestShortRuns(t *testing.T) {
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			sp := with(workloads[name], func(s *spec) { s.setups = 2 })
			res, err := run(sp, options{seed: 7, calls: 500, trace: traced, out: t.TempDir()})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 500 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if traced && res.Metrics["trace.counters_match"].Value != 1 {
				t.Errorf("%s: traced counters differ from the untraced run's", name)
			}
			if traced && res.Metrics["topk.report_p99_us"].Value <= 0 {
				t.Errorf("%s: topk.report_p99_us = %v, want > 0", name, res.Metrics["topk.report_p99_us"].Value)
			}
			if !traced {
				for _, m := range []string{"obs_per_s", "report_p50_us", "cpu_us_per_call", "setup_s", "heap_mib"} {
					if res.Metrics[m].Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", name, m, res.Metrics[m].Value)
					}
				}
			}
		}
	}
}

// TestGenRotations generates the delta workloads' inputs through more
// rotations than the top group has nodes, so every rotation pair comes
// round twice: each call's ids must be strictly increasing, and the top
// and edge groups must keep their sizes.
func TestGenRotations(t *testing.T) {
	for _, name := range []string{"quiet-tcp", "skew-tree-async"} {
		sp := with(workloads[name], func(s *spec) { s.rotate = 16 })
		g := newGen(sp, 3)
		for c := 0; c < sp.rotate*(2*g.top+3); c++ {
			ids, vals := g.next(nil, nil)
			for i, id := range ids {
				if id < 0 || id >= sp.nodes || i > 0 && id <= ids[i-1] {
					t.Fatalf("%s call %d: ids %v not strictly increasing in [0, %d)", name, c, ids, sp.nodes)
				}
			}
			if len(vals) != len(ids) {
				t.Fatalf("%s call %d: %d ids, %d values", name, c, len(ids), len(vals))
			}
			top, edge := 0, 0
			for _, v := range g.cur {
				switch {
				case v >= valueCap/4*3:
					top++
				case v > valueCap/2:
					edge++
				}
			}
			if top != g.top || edge != sp.edge {
				t.Fatalf("%s call %d: %d top and %d edge values, want %d and %d", name, c, top, edge, g.top, sp.edge)
			}
		}
	}
}

// sortTopK is the plain reference: sort ids by (value desc, id asc) and
// return the first k in ascending id order.
func sortTopK(vals []int64, k int) []int {
	ids := make([]int, len(vals))
	for i := range ids {
		ids[i] = i
	}
	sort.Slice(ids, func(a, b int) bool { return beats(vals, ids[a], ids[b]) })
	top := slices.Clone(ids[:k])
	slices.Sort(top)
	return top
}

// TestCheckerAgreesWithSort checks that the exact check accepts exactly
// the report a full sort produces, ties included.
func TestCheckerAgreesWithSort(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 500; trial++ {
		n := 1 + r.IntN(40)
		k := 1 + r.IntN(n)
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = 1 + r.Int64N(8) // small range: many ties
		}
		c := &checker{k: k, in: make([]bool, n)}
		want := sortTopK(vals, k)
		if err := c.exact(vals, want); err != nil {
			t.Fatalf("vals %v k %d: sorted report %v rejected: %v", vals, k, want, err)
		}
		if k == n {
			continue
		}
		// Every other k-subset must be rejected; try a one-id swap.
		bad := slices.Clone(want)
		for id := 0; id < n; id++ {
			if !slices.Contains(want, id) {
				bad[r.IntN(k)] = id
				break
			}
		}
		slices.Sort(bad)
		if err := c.exact(vals, bad); err == nil {
			t.Fatalf("vals %v k %d: wrong report %v accepted (want %v)", vals, k, bad, want)
		}
	}
}

// TestCheckerRejectsCorruptReports feeds the checks malformed and wrong
// reports.
func TestCheckerRejectsCorruptReports(t *testing.T) {
	vals := []int64{50, 10, 40, 30, 20, 100}
	c := &checker{k: 3, in: make([]bool, len(vals))}
	if err := c.exact(vals, []int{0, 2, 5}); err != nil {
		t.Fatalf("correct report rejected: %v", err)
	}
	for _, top := range [][]int{
		{0, 3, 5},    // 30 reported, 40 not
		{0, 2},       // too short
		{0, 2, 5, 3}, // too long
		{2, 0, 5},    // not ascending
		{0, 0, 5},    // duplicate
		{0, 2, 6},    // out of range
	} {
		if err := c.exact(vals, top); err == nil {
			t.Errorf("report %v accepted", top)
		}
		for _, id := range top {
			if id >= 0 && id < len(c.in) && c.in[id] {
				t.Fatalf("membership marks left set after report %v", top)
			}
		}
	}

	// ε = 0.05: 1000 may stand in for 1040 (a band around ~1020 covers
	// both), but not for 1200.
	eps := &checker{k: 1, eps: 0.05, in: make([]bool, 2)}
	if err := eps.approx([]int64{1000, 1040}, []int{0}); err != nil {
		t.Errorf("ε-valid report rejected: %v", err)
	}
	if err := eps.approx([]int64{1000, 1200}, []int{0}); err == nil {
		t.Error("report outside every (1±ε) band accepted")
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

// TestProfileCharging checks the module attribution of symbol names.
func TestProfileCharging(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/coord.(*Machine).Step":      "coord",
		"repro/internal/wire.ObserveDelta.Append":   "wire",
		"repro/topk.(*Monitor).ObserveDelta":        "topk",
		"repro/internal/runtime.(*Runtime).Observe": "other",
		"main.(*gen).next":                          "bench",
		"slices.pdqsortCmpFunc[go.shape.int]":       "",
		"runtime.mallocgc":                          "",
	} {
		if got := moduleOf(packageOf(fn)); got != want {
			t.Errorf("%s: charged to %q, want %q", fn, got, want)
		}
	}
}

// TestWindowRate checks a window's rate: the slowest 1% of the units
// without rotation are replaced by the mean of the rest, rotation units
// count in full, and stolen CPU time is taken out of the busy time.
func TestWindowRate(t *testing.T) {
	w := windowStats{size: 200}
	for i := 0; i < 200; i++ {
		us := 10.0
		if i < 2 {
			us = 5000 // two host stalls: the slowest 1%
		}
		w.unit(us, false)
		w.lat = append(w.lat, us)
	}
	w.unit(1000, true)
	w.updates = 1000
	if got, want := w.busyUs(), 200*10.0+1000; got != want {
		t.Fatalf("busy %v µs, want %v", got, want)
	}
	if got := (cpuTicks{total: 1100, steal: 150}).availableSince(cpuTicks{total: 100, steal: 50}); got != 0.9 {
		t.Fatalf("availability %v, want 0.9", got)
	}
	if got := (cpuTicks{}).availableSince(cpuTicks{}); got != 1 {
		t.Fatalf("availability without counters %v, want 1", got)
	}
	w.cpuTime = readCPUTicks()
	w.close(false)
	if len(w.rate) != 1 || w.rate[0] < 1000/3000e-6 {
		t.Fatalf("rate %v, want one window at >= %v obs/s", w.rate, 1000/3000e-6)
	}
}
