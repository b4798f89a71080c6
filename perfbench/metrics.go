package main

import (
	"fmt"
	"os"
	"sort"
)

// run executes the workload and builds the result line: the end-to-end
// metrics, or with o.trace the per-layer ones. A traced run first runs
// the workload untraced for half the time, then repeats exactly that
// many calls with tracing on, so the two runs see identical inputs and
// protocol randomness and their counters can be compared.
func run(sp *spec, o options) (result, error) {
	if !o.trace {
		st, err := execute(sp, o, int64(o.calls), nil)
		if err != nil {
			return result{}, err
		}
		return finish(st, endToEnd(st)), nil
	}
	plain := o
	plain.seconds /= 2
	a, err := execute(sp, plain, int64(o.calls), nil)
	if err != nil {
		return result{}, err
	}
	tr := newTracer()
	b, err := execute(sp, o, a.calls, tr)
	if err != nil {
		return result{}, err
	}
	m := perLayer(a, b, tr)
	ra, rb := median(a.win.rate), median(b.win.rate)
	m["trace.untraced_obs_per_s"] = metric{ra, "obs/s"}
	m["trace.traced_obs_per_s"] = metric{rb, "obs/s"}
	m["trace.overhead_pct"] = metric{100 * (ra/rb - 1), "%"}
	match := 1.0
	if !sp.async() {
		da, db := delta(a), delta(b)
		if da != db {
			match = 0
			b.problem(true, "traced counters %+v differ from untraced %+v", db, da)
		}
	}
	m["trace.counters_match"] = metric{match, "bool"}
	b.attempted += a.attempted
	b.failed += a.failed
	b.wrong += a.wrong
	b.problems = append(a.problems, b.problems...)
	return finish(b, m), nil
}

// loopCounts are the counters a traced run must reproduce exactly on a
// synchronous workload.
type loopCounts struct{ calls, msgs, bytes, frames, wireBytes int64 }

func delta(st *runStats) loopCounts {
	t0, t1 := st.before.transport, st.after.transport
	return loopCounts{
		calls:     st.calls,
		msgs:      st.after.counts.Total() - st.before.counts.Total(),
		bytes:     st.after.bytes.Total() - st.before.bytes.Total(),
		frames:    t1.SentFrames + t1.RecvFrames - t0.SentFrames - t0.RecvFrames,
		wireBytes: t1.SentBytes + t1.RecvBytes - t0.SentBytes - t0.RecvBytes,
	}
}

func finish(st *runStats, m map[string]metric) result {
	for _, p := range st.problems {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", p)
	}
	return result{Correct: st.wrong == 0, Attempted: st.attempted, Failed: st.failed, Metrics: m}
}

// endToEnd computes the metrics a user of the monitor sees. Timings are
// medians over the run's windows. The windows' 99th percentile is not
// among them: it is reported by the traced run as topk.report_p99_us,
// since its spread across identical runs was far wider than any bound a
// regression gate could use.
func endToEnd(st *runStats) map[string]metric {
	w := &st.win
	return map[string]metric{
		"obs_per_s":       {median(w.rate), "obs/s"},
		"report_p50_us":   {median(w.p50), "us"},
		"cpu_us_per_call": {median(w.cpuPerCall), "us/call"},
		"msgs_per_call":   {float64(st.msgs) / float64(st.countCalls), "msgs/call"},
		"bytes_per_call":  {float64(st.bytes) / float64(st.countCalls), "B/call"},
		"setup_s":         {median(st.setup), "s"},
		"heap_mib":        {st.heapMiB, "MiB"},
	}
}

// perLayer computes the per-layer metrics from the traced run st, and the
// allocation count from the untraced run plain, whose process holds no
// profiler goroutine allocating beside the monitor. Every metric is
// printed on every workload; one that a workload does not exercise reads
// 0 (no TCP frames on reset-seq, no step classes on the async workload).
func perLayer(plain, st *runStats, tr *tracer) map[string]metric {
	b, a := st.before, st.after
	calls := float64(st.calls)
	per := func(x int64) float64 { return float64(x) / calls }
	perK := func(x int64) float64 { return 1000 * float64(x) / calls }
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	put("topk.allocs_per_call", float64(plain.mallocs)/float64(plain.calls), "allocs/call")
	put("topk.report_p99_us", median(plain.win.p99), "us")

	lat := st.classLat
	for i := range lat {
		sort.Float64s(lat[i])
	}
	put("coord.quiet_step_p50_us", percentile(lat[0], 50), "us")
	put("coord.violation_step_p50_us", percentile(lat[1], 50), "us")
	put("coord.reset_step_p50_us", percentile(lat[2], 50), "us")
	put("coord.reset_step_p99_us", percentile(lat[2], 99), "us")
	put("coord.violation_steps_per_kcall", perK(a.stats.ViolationSteps-b.stats.ViolationSteps), "1/kcall")
	put("coord.resets_per_kcall", perK(a.stats.Resets-b.stats.Resets), "1/kcall")
	put("coord.top_changes_per_kcall", perK(a.stats.TopChanges-b.stats.TopChanges), "1/kcall")

	put("protocol.violation_msgs_per_call", per(a.phases.Violation.Total()-b.phases.Violation.Total()), "msgs/call")
	put("protocol.handler_msgs_per_call", per(a.phases.Handler.Total()-b.phases.Handler.Total()), "msgs/call")
	put("protocol.reset_msgs_per_call", per(a.phases.Reset.Total()-b.phases.Reset.Total()), "msgs/call")
	put("protocol.reset_bytes_per_call", per(a.phaseBytes.Reset.Total()-b.phaseBytes.Reset.Total()), "B/call")

	d := delta(st)
	put("transport.frames_per_call", per(d.frames), "frames/call")
	put("transport.bytes_per_call", per(d.wireBytes), "B/call")
	l0, l1 := st.linkBefore, st.linkAt
	put("transport.flushes_per_call", per(l1.flushes-l0.flushes), "1/call")
	put("transport.send_us_per_call", float64(l1.sendNs+l1.flushNs-l0.sendNs-l0.flushNs)/1e3/calls, "us/call")
	bpf := 0.0
	if d.frames > 0 {
		bpf = float64(d.wireBytes) / float64(d.frames)
	}
	put("wire.bytes_per_frame", bpf, "B/frame")
	overhead := 0.0
	if d.frames > 0 {
		overhead = per(d.wireBytes - d.bytes)
	}
	put("wire.overhead_bytes_per_call", overhead, "B/call")
	for typ, name := range msgTypes {
		put("wire.frames_per_call."+name, per(l1.frames[typ]-l0.frames[typ]), "frames/call")
	}

	put("shardrun.overhead_msgs_per_call", per(a.ovCounts.Total()-b.ovCounts.Total()), "msgs/call")
	put("shardrun.overhead_bytes_per_call", per(a.ovBytes.Total()-b.ovBytes.Total()), "B/call")
	rootFrames, absorbed := int64(0), int64(0)
	if n := len(a.tree.Levels); n > 0 && len(b.tree.Levels) == n {
		rootFrames = a.tree.Levels[n-1].Down + a.tree.Levels[n-1].Up - b.tree.Levels[n-1].Down - b.tree.Levels[n-1].Up
	}
	if n := len(a.tree.Absorbs); n > 0 && len(b.tree.Absorbs) == n {
		absorbed = a.tree.Absorbs[0] - a.tree.Absorbs[n-1] - (b.tree.Absorbs[0] - b.tree.Absorbs[n-1])
	}
	put("shardrun.root_frames_per_call", per(rootFrames), "frames/call")
	put("shardrun.absorbs_per_kcall", perK(absorbed), "1/kcall")

	put("ingest.enqueue_us_per_call", float64(st.enqueueNs)/1e3/calls, "us/call")
	coalesced := 0.0
	if enq := a.ingest.Enqueued - b.ingest.Enqueued; enq > 0 {
		coalesced = 1000 * float64(a.ingest.Coalesced-b.ingest.Coalesced) / float64(enq)
	}
	put("ingest.coalesced_per_kupdate", coalesced, "1/kupdate")
	put("ingest.steps_per_call", per(a.ingest.Batches-b.ingest.Batches), "steps/call")
	put("ingest.max_queue", float64(a.ingest.MaxQueue), "count")

	// Only the Saves of the loop: not set-up's, nor the final explicit
	// Checkpoint of the restore check.
	tr.mu.Lock()
	saves := append([]float64(nil), tr.saves[l0.saves:l1.saves]...)
	saveB := l1.saveB - l0.saveB
	tr.mu.Unlock()
	sum := 0.0
	for _, s := range saves {
		sum += s
	}
	sort.Float64s(saves)
	frameKiB := 0.0
	if len(saves) > 0 {
		frameKiB = float64(saveB) / float64(len(saves)) / 1024
	}
	put("ckpt.save_us_per_call", sum/calls, "us/call")
	put("ckpt.save_p50_us", percentile(saves, 50), "us")
	put("ckpt.frame_kib", frameKiB, "KiB")
	put("ckpt.saves_per_kcall", perK(a.ckpt.Saves-b.ckpt.Saves), "1/kcall")
	put("ckpt.restore_s", st.restoreS, "s")

	var sampled int64
	for _, ns := range st.samples {
		sampled += ns
	}
	for _, mod := range modules {
		us := 0.0
		if sampled > 0 {
			us = float64(st.samples[mod]) / float64(sampled) * float64(st.loopCPU.Nanoseconds()) / 1e3 / calls
		}
		put(mod+".self_us_per_call", us, "us/call")
	}
	return m
}
