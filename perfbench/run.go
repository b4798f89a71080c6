package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"sort"
	"strconv"
	"syscall"
	"time"

	"repro/topk"
)

// profileHz is the CPU sampling rate the traced run asks for. A kernel
// may deliver fewer profiling signals (a 250 Hz tick caps them at 250 per
// second per thread), so module figures use the samples only for their
// shares and scale them to the process CPU time getrusage measured.
const profileHz = 1000

// windowStats turns a loop's samples into per-window figures. A window
// closes at the first chunk boundary after it holds size latency
// samples; every reported timing is the median over windows, so a burst
// of host noise moves a few windows, not the figure. close(true) also
// closes a partial window.
//
// A window's busy time is the time of its timed units (a call when
// synchronous, a chunk with its Drain when asynchronous). The slowest
// 1% of the units that hold no rotation are left out of it and replaced
// by the mean of the others: on a shared host those are calls stalled
// for 0.3–7 ms while the hypervisor runs another guest, and they set the
// window's mean by themselves (see README.md, "Noise"). Rotation units
// are the workload's own slow steps and always count in full.
//
// The busy time is then scaled by the VM's CPU availability over the
// window, 1 − steal/total from /proc/stat: time the hypervisor gave to
// other guests slows every unit in proportion, and throughput per second
// of available CPU does not depend on how busy the neighbours are.
type windowStats struct {
	size    int
	lat     []float64 // current window's latency samples, µs
	units   []float64 // current window's unit times without rotation, µs
	rotUs   float64   // current window's rotation unit time, µs
	updates int64
	calls   int64
	cpu     time.Duration
	cpuTime cpuTicks // VM-wide CPU counters when the window opened

	p50, p99, rate, cpuPerCall []float64 // one entry per closed window
}

// unit adds one timed unit of the window.
func (w *windowStats) unit(us float64, rotation bool) {
	if rotation {
		w.rotUs += us
	} else {
		w.units = append(w.units, us)
	}
}

// busyUs returns the window's busy time, trimmed as the type describes.
func (w *windowStats) busyUs() float64 {
	sort.Float64s(w.units)
	keep := len(w.units) - len(w.units)/100
	sum := 0.0
	for _, us := range w.units[:keep] {
		sum += us
	}
	if keep > 0 {
		sum *= float64(len(w.units)) / float64(keep)
	}
	return sum + w.rotUs
}

// open starts the window's availability interval.
func (w *windowStats) open() { w.cpuTime = readCPUTicks() }

func (w *windowStats) close(force bool) {
	if len(w.lat) == 0 || !force && len(w.lat) < w.size {
		return
	}
	sort.Float64s(w.lat)
	w.p50 = append(w.p50, percentile(w.lat, 50))
	w.p99 = append(w.p99, percentile(w.lat, 99))
	avail := readCPUTicks().availableSince(w.cpuTime)
	w.rate = append(w.rate, float64(w.updates)/(w.busyUs()*avail)*1e6)
	w.open()
	w.cpuPerCall = append(w.cpuPerCall, float64(w.cpu.Microseconds())/float64(w.calls))
	w.lat, w.units, w.rotUs, w.updates, w.calls, w.cpu = w.lat[:0], w.units[:0], 0, 0, 0, 0
}

// counters is a snapshot of every engine counter the metrics use.
type counters struct {
	stats      topk.Stats
	counts     topk.Counts
	bytes      topk.Bytes
	phases     topk.PhaseCounts
	phaseBytes topk.PhaseBytes
	transport  topk.TransportStats
	ovCounts   topk.Counts
	ovBytes    topk.Bytes
	tree       topk.TreeStats
	ingest     topk.IngestStats
	ckpt       topk.CheckpointStats
}

func snapshot(m *topk.Monitor) (counters, error) {
	c := counters{
		stats: m.Stats(), counts: m.Counts(), bytes: m.Bytes(),
		phases: m.Phases(), phaseBytes: m.BytesByPhase(), transport: m.TransportStats(),
		ingest: m.IngestStats(), ckpt: m.CheckpointStats(),
	}
	c.ovCounts, c.ovBytes = m.Overhead()
	var err error
	c.tree, err = m.TreeStats()
	return c, err
}

// runStats is what one execution of a workload measured.
type runStats struct {
	attempted, failed, wrong int64
	problems                 []string // first few failures, for standard error

	setup         []float64 // seconds per set-up
	calls         int64
	win           windowStats
	countCalls    int64 // calls in the message-count window
	msgs, bytes   int64 // model messages and bytes in that window
	heapMiB       float64
	restoreS      float64
	before, after counters

	mallocs uint64 // heap allocations during the timed calls

	// Traced executions only.
	classLat           [3][]float64 // quiet, violation and reset step latency, µs
	enqueueNs          int64
	linkBefore, linkAt linkCounts       // link wrapper counters around the loop
	samples            map[string]int64 // sampled CPU ns per module over the loop
	loopCPU            time.Duration    // process CPU over the profiled loop
}

// problem records a failed operation; wrong marks a wrong report.
func (st *runStats) problem(wrong bool, format string, args ...any) {
	st.failed++
	if wrong {
		st.wrong++
	}
	if len(st.problems) < 5 {
		st.problems = append(st.problems, fmt.Sprintf(format, args...))
	}
}

// cpuTicks are the VM-wide CPU time counters of /proc/stat's "cpu" line,
// in clock ticks: all states together, and steal (time the hypervisor
// ran another guest while this one wanted a CPU).
type cpuTicks struct{ total, steal int64 }

// readCPUTicks reads the counters; without /proc/stat (or its steal
// column) it returns zeros, and availability reads 1.
func readCPUTicks() cpuTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := bytes.Fields(line)
	if len(f) < 9 || string(f[0]) != "cpu" {
		return cpuTicks{}
	}
	var c cpuTicks
	for i, x := range f[1:] {
		v, err := strconv.ParseInt(string(x), 10, 64)
		if err != nil {
			return cpuTicks{}
		}
		if i < 8 { // user … steal; guest time is already in user
			c.total += v
		}
		if i == 7 {
			c.steal = v
		}
	}
	return c
}

// availableSince returns the share of the VM's CPU time since c0 that was
// not stolen, 1 when nothing was counted.
func (c cpuTicks) availableSince(c0 cpuTicks) float64 {
	total, steal := c.total-c0.total, c.steal-c0.steal
	if total <= 0 || steal < 0 || steal >= total {
		return 1
	}
	return 1 - float64(steal)/float64(total)
}

func rusageCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// execute sets the workload up, runs its loop — until maxCalls update
// calls when positive, for o.seconds otherwise — and checks every report.
// With a tracer it sets up once, records spans and counters and
// CPU-profiles the loop. Set-up and loop run with sp.procs Ps when set.
func execute(sp *spec, o options, maxCalls int64, tr *tracer) (*runStats, error) {
	if sp.procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(sp.procs))
	}
	g := newGen(sp, o.seed)
	l := &loop{
		sp: sp, tr: tr, g: g,
		st:     &runStats{win: windowStats{size: sp.window, lat: make([]float64, 0, sp.window+sp.chunk), units: make([]float64, 0, sp.window+sp.chunk)}},
		truth:  slices.Clone(g.cur),
		ck:     &checker{k: sp.k, eps: sp.eps, in: make([]bool, sp.nodes)},
		top:    make([]int, 0, sp.k),
		tops:   make([]int, 0, sp.chunk*sp.k),
		topEnd: make([]int, sp.chunk),
	}
	// The live heap before any monitor exists: the benchmark's own
	// generator, checker and statistics arrays, subtracted from heap_mib.
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	benchHeap := ms.HeapAlloc
	if err := l.setup(o.seed); err != nil {
		return nil, err
	}
	st, r := l.st, l.r
	stopped := false
	defer func() {
		if !stopped {
			r.stop()
		}
	}()

	var err error
	if st.before, err = snapshot(r.mon); err != nil {
		return nil, err
	}
	l.prev = st.before.stats
	var (
		prof     bytes.Buffer
		loopCPU0 time.Duration
		allocs   = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:objects"}}
	)
	if tr != nil {
		st.linkBefore = tr.links()
		runtime.SetCPUProfileRate(profileHz)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
		loopCPU0 = rusageCPU()
	}
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	st.win.open()
	for maxCalls > 0 && st.calls < maxCalls || maxCalls <= 0 && time.Now().Before(deadline) {
		l.generate()
		metrics.Read(allocs[:1])
		cpu0 := rusageCPU()
		t0 := time.Now()
		if sp.async() {
			l.timedAsync(t0)
		} else {
			l.timedSync()
		}
		busy := time.Since(t0)
		cpu := rusageCPU() - cpu0
		if sp.async() {
			st.win.unit(float64(busy.Nanoseconds())/1e3, l.rot >= 0)
		}
		metrics.Read(allocs[1:])
		st.mallocs += allocs[1].Value.Uint64() - allocs[0].Value.Uint64()
		l.check()

		updates := int64(len(l.vals))
		st.calls += int64(sp.chunk)
		st.win.updates += updates
		st.win.calls += int64(sp.chunk)
		st.win.cpu += cpu
		st.win.close(false)
		if st.countCalls == 0 && st.calls >= int64(sp.count) {
			st.countCalls = st.calls
			st.msgs = r.mon.Counts().Total() - st.before.counts.Total()
			st.bytes = r.mon.Bytes().Total() - st.before.bytes.Total()
		}
	}
	if tr != nil {
		st.loopCPU = rusageCPU() - loopCPU0
		pprof.StopCPUProfile()
		st.linkAt = tr.links()
		if err := l.writeTrace(o.out, prof.Bytes()); err != nil {
			return nil, err
		}
	}
	st.win.close(len(st.win.p50) == 0) // a trailing partial window counts only in short runs
	if st.after, err = snapshot(r.mon); err != nil {
		return nil, err
	}
	if st.countCalls == 0 {
		st.countCalls = st.calls
		st.msgs = st.after.counts.Total() - st.before.counts.Total()
		st.bytes = st.after.bytes.Total() - st.before.bytes.Total()
	}
	l.ids, l.vals, l.offs = nil, nil, nil // the chunk buffers came after benchHeap was read
	runtime.GC()
	runtime.ReadMemStats(&ms)
	st.heapMiB = (float64(ms.HeapAlloc) - float64(benchHeap)) / (1 << 20)

	if sp.ckptEvery > 0 {
		l.restoreCheck()
	}
	stopped = true
	if err := r.stop(); err != nil {
		return nil, err
	}
	return st, nil
}

// loop is one execution's state: the monitor, the generator running
// ahead, the checker's copy of the values it lags with, and the current
// chunk's inputs and reports.
type loop struct {
	sp    *spec
	r     *rig
	st    *runStats
	tr    *tracer
	g     *gen
	truth []int64
	ck    *checker
	prev  topk.Stats // traced runs classify each call by its Stats delta

	ids    []int
	vals   []int64
	offs   []int // call i's input is ids/vals[offs[i]:offs[i+1]] (dense: vals only)
	rot    int   // index of the chunk's rotation call, -1 for none
	top    []int
	tops   []int // sync: the chunk's reports back to back
	topEnd []int // end of call i's report in tops; -1 for a failed call
}

// warmSetups is how many untimed set-ups come before the timed ones: the
// first set-ups of a process are slower while its heap is still growing.
const warmSetups = 2

// setup times New through the first fully applied report sp.setups times
// (once when traced); the last monitor runs the loop. A median of several
// set-ups comes after warmSetups untimed ones. Each set-up starts after a
// forced GC, so none pays for collecting its predecessor.
func (l *loop) setup(seed uint64) error {
	setups := l.sp.setups
	if l.tr != nil {
		setups = 1
	}
	warm := 0
	if setups > 1 {
		warm = warmSetups
	}
	for i := 0; i < warm+setups; i++ {
		if l.r != nil {
			if err := l.r.stop(); err != nil {
				return err
			}
		}
		runtime.GC()
		t0 := time.Now()
		r, err := l.sp.open(seed, l.tr)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		l.r = r
		_, err = r.mon.Observe(l.truth)
		l.st.attempted++
		if err == nil && l.sp.async() {
			err = r.mon.Drain(context.Background())
			l.st.attempted++
		}
		if i >= warm {
			l.st.setup = append(l.st.setup, time.Since(t0).Seconds())
		}
		if err != nil {
			r.stop()
			return fmt.Errorf("set-up: first report: %w", err)
		}
		if err := l.ck.check(l.truth, r.mon.AppendTop(l.top[:0])); err != nil {
			l.st.problem(true, "set-up report: %v", err)
		}
	}
	return nil
}

// generate produces the next chunk's inputs, before its timer starts.
func (l *loop) generate() {
	l.ids, l.vals, l.offs, l.rot = l.ids[:0], l.vals[:0], l.offs[:0], -1
	for i := 0; i < l.sp.chunk; i++ {
		l.offs = append(l.offs, len(l.vals))
		l.ids, l.vals = l.g.next(l.ids, l.vals)
		if l.g.rotated {
			l.rot = i
		}
	}
	l.offs = append(l.offs, len(l.vals))
}

// span records a traced call's span from its start and duration.
func (l *loop) span(name uint8, start time.Time, d time.Duration) {
	from := int64(start.Sub(l.tr.t0))
	l.tr.record(name, from, from+int64(d))
}

// timedSync makes the chunk's calls, timing each one and keeping its
// report for the check.
func (l *loop) timedSync() {
	st, mon := l.st, l.r.mon
	l.tops = l.tops[:0]
	for i := 0; i < l.sp.chunk; i++ {
		if l.tr != nil {
			l.tr.call.Store(st.attempted)
		}
		vals := l.vals[l.offs[i]:l.offs[i+1]]
		c0 := time.Now()
		var rep []int
		var err error
		if l.sp.dense {
			rep, err = mon.Observe(vals)
		} else {
			rep, err = mon.ObserveDelta(l.ids[l.offs[i]:l.offs[i+1]], vals)
		}
		d := time.Since(c0)
		us := float64(d.Nanoseconds()) / 1e3
		st.win.lat = append(st.win.lat, us)
		st.win.unit(us, i == l.rot)
		st.attempted++
		l.topEnd[i] = -1
		if err != nil {
			st.problem(false, "call %d: %v", st.calls+int64(i), err)
		} else {
			l.tops = append(l.tops, rep...)
			l.topEnd[i] = len(l.tops)
		}
		if l.tr != nil {
			name := spanObserveDelta
			if l.sp.dense {
				name = spanObserve
			}
			l.span(name, c0, d)
			s := mon.Stats()
			class := 0
			if s.Resets > l.prev.Resets {
				class = 2
			} else if s.ViolationSteps > l.prev.ViolationSteps {
				class = 1
			}
			st.classLat[class] = append(st.classLat[class], us)
			l.prev = s
		}
	}
}

// timedAsync stages the chunk's calls and drains them: the Drain's time
// is the report latency, the calls are timed only as a batch.
func (l *loop) timedAsync(t0 time.Time) {
	st, mon := l.st, l.r.mon
	for i := 0; i < l.sp.chunk; i++ {
		if l.tr != nil {
			l.tr.call.Store(st.attempted)
		}
		c0 := time.Now()
		_, err := mon.ObserveDelta(l.ids[l.offs[i]:l.offs[i+1]], l.vals[l.offs[i]:l.offs[i+1]])
		if l.tr != nil {
			l.span(spanObserveDelta, c0, time.Since(c0))
		}
		st.attempted++
		if err != nil {
			st.problem(false, "ObserveDelta: %v", err)
		}
	}
	c0 := time.Now()
	if l.tr != nil {
		st.enqueueNs += int64(c0.Sub(t0))
		l.tr.call.Store(st.attempted)
	}
	err := mon.Drain(context.Background())
	d := time.Since(c0)
	if l.tr != nil {
		l.span(spanDrain, c0, d)
	}
	st.win.lat = append(st.win.lat, float64(d.Nanoseconds())/1e3)
	st.attempted++
	if err != nil {
		st.problem(false, "Drain: %v", err)
	}
}

// check replays the chunk onto the checker's copy of the values and
// checks every report: each call's (sync) or the one at the Drain
// barrier (async), with the monitor's health.
func (l *loop) check() {
	st, sp := l.st, l.sp
	start := 0
	for i := 0; i < sp.chunk; i++ {
		if sp.dense {
			copy(l.truth, l.vals[l.offs[i]:l.offs[i+1]])
		} else {
			for j := l.offs[i]; j < l.offs[i+1]; j++ {
				l.truth[l.ids[j]] = l.vals[j]
			}
		}
		if sp.async() || l.topEnd[i] < 0 {
			continue
		}
		if err := l.ck.check(l.truth, l.tops[start:l.topEnd[i]]); err != nil {
			st.problem(true, "call %d: %v", st.calls+int64(i), err)
		}
		start = l.topEnd[i]
	}
	if sp.async() {
		call := st.calls + int64(sp.chunk)
		if err := l.ck.check(l.truth, l.r.mon.AppendTop(l.top[:0])); err != nil {
			st.problem(true, "Drain after call %d: %v", call, err)
		}
		if h := l.r.mon.Health(); h.Terminal != nil || h.Degraded {
			st.problem(false, "Drain after call %d: unhealthy monitor: %+v", call, h)
		}
	}
}

// writeTrace attributes the CPU profile and writes it and the spans out.
func (l *loop) writeTrace(dir string, prof []byte) error {
	var err error
	if l.st.samples, err = selfTime(prof); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "cpu-"+l.sp.name+".pprof"), prof, 0o644); err != nil {
		return err
	}
	return l.tr.write(filepath.Join(dir, "spans-"+l.sp.name+".tsv"))
}

// restoreCheck persists the drained state as the newest frame, drops the
// monitor as a crash would, restores from the store and checks the first
// post-restore step.
func (l *loop) restoreCheck() {
	r, st, tr := l.r, l.st, l.tr
	ctx := context.Background()
	if _, err := r.mon.Checkpoint(ctx); err != nil {
		st.problem(false, "final checkpoint: %v", err)
		return
	}
	r.mon.Close()
	t0 := time.Now()
	m, err := topk.Restore(r.store, r.cfg)
	st.restoreS = time.Since(t0).Seconds()
	if tr != nil {
		l.span(spanRestore, t0, time.Since(t0))
	}
	if err != nil {
		st.problem(false, "restore: %v", err)
		return
	}
	defer m.Close()
	ids, vals := l.g.next(nil, nil)
	_, err = m.ObserveDelta(ids, vals)
	st.attempted++
	if err == nil {
		err = m.Drain(ctx)
		st.attempted++
	}
	if err != nil {
		st.problem(false, "first step after restore: %v", err)
		return
	}
	for j, id := range ids {
		l.truth[id] = vals[j]
	}
	if err := l.ck.check(l.truth, m.AppendTop(nil)); err != nil {
		st.problem(true, "first step after restore: %v", err)
	}
	if h := m.Health(); h.Terminal != nil || h.Degraded {
		st.problem(false, "first step after restore: unhealthy monitor: %+v", h)
	}
}
