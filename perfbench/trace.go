package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
	"repro/topk"
)

// Span names. A span covers one call into a layer at a boundary the
// benchmark owns: a topk call, a Link operation, a store Save.
const (
	spanObserve uint8 = iota
	spanObserveDelta
	spanDrain
	spanSend
	spanFlush
	spanSave
	spanRestore
)

var spanNames = [...]string{"topk.Observe", "topk.ObserveDelta", "topk.Drain", "transport.Send", "transport.Flush", "ckpt.Save", "topk.Restore"}

// maxSpans caps the spans one traced run keeps in memory (32 B each);
// later spans are counted as dropped.
const maxSpans = 1 << 19

type span struct {
	name       uint8
	call       int64 // index of the topk call in progress, the parent of every span
	start, end int64 // ns since the tracer started
}

// tracer collects the traced run's spans and boundary counters. The link
// and store wrappers run on the monitor's reader and worker goroutines, so
// everything they touch is atomic or under mu.
type tracer struct {
	t0   time.Time
	call atomic.Int64

	mu      sync.Mutex
	spans   []span
	dropped int64
	saves   []float64 // µs per Save
	saveB   int64     // bytes saved

	sentType, recvType [256]atomic.Int64 // frames by wire.MsgType
	sendNs, flushNs    atomic.Int64
	flushes            atomic.Int64
}

// linkCounts is a snapshot of the link and store wrappers' counters.
type linkCounts struct {
	frames                   [256]int64 // sent plus received, by wire.MsgType
	sendNs, flushNs, flushes int64
	saves                    int   // Saves so far: tracer.saves[:saves]
	saveB                    int64 // bytes they saved
}

func (t *tracer) links() linkCounts {
	c := linkCounts{sendNs: t.sendNs.Load(), flushNs: t.flushNs.Load(), flushes: t.flushes.Load()}
	for i := range c.frames {
		c.frames[i] = t.sentType[i].Load() + t.recvType[i].Load()
	}
	t.mu.Lock()
	c.saves, c.saveB = len(t.saves), t.saveB
	t.mu.Unlock()
	return c
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, maxSpans)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) record(name uint8, start, end int64) {
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{name: name, call: t.call.Load(), start: start, end: end})
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// write stores the spans as tab-separated name, parent call, start and
// end (ns since the traced loop's set-up began).
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# span\tcall\tstart_ns\tend_ns (dropped %d)\n", t.dropped)
	for _, s := range t.spans {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\n", spanNames[s.name], s.call, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedLink wraps a coordinator-side TCP link. It forwards Flush and
// Stats, so the engine still sees a buffered link with statistics and
// frames exactly as it would unwrapped.
type tracedLink struct {
	l  transport.Link
	tr *tracer
}

func (w *tracedLink) Send(p []byte) error {
	t0 := w.tr.now()
	err := w.l.Send(p)
	t1 := w.tr.now()
	w.tr.sendNs.Add(t1 - t0)
	w.tr.record(spanSend, t0, t1)
	if typ, terr := wire.MsgType(p); terr == nil {
		w.tr.sentType[typ].Add(1)
	}
	return err
}

func (w *tracedLink) Recv() ([]byte, error) {
	p, err := w.l.Recv()
	if err == nil {
		if typ, terr := wire.MsgType(p); terr == nil {
			w.tr.recvType[typ].Add(1)
		}
	}
	return p, err
}

func (w *tracedLink) Flush() error {
	t0 := w.tr.now()
	err := transport.Flush(w.l)
	t1 := w.tr.now()
	w.tr.flushNs.Add(t1 - t0)
	w.tr.flushes.Add(1)
	w.tr.record(spanFlush, t0, t1)
	return err
}

func (w *tracedLink) Stats() transport.LinkStats { return transport.StatsOf(w.l) }

func (w *tracedLink) Close() error { return w.l.Close() }

// tracedStore wraps the checkpoint store, timing every Save.
type tracedStore struct {
	s  topk.CheckpointStore
	tr *tracer
}

func (w *tracedStore) Save(gen uint64, frame []byte) error {
	t0 := w.tr.now()
	err := w.s.Save(gen, frame)
	t1 := w.tr.now()
	w.tr.record(spanSave, t0, t1)
	w.tr.mu.Lock()
	w.tr.saves = append(w.tr.saves, float64(t1-t0)/1e3)
	w.tr.saveB += int64(len(frame))
	w.tr.mu.Unlock()
	return err
}

func (w *tracedStore) Load() (uint64, []byte, error) { return w.s.Load() }

// msgTypes names the wire message types a traced link can classify.
var msgTypes = map[byte]string{
	wire.TypeAssign: "assign", wire.TypeReady: "ready", wire.TypeObserve: "observe",
	wire.TypeObserveDelta: "observe_delta", wire.TypeRound: "round", wire.TypeReply: "reply",
	wire.TypeWinner: "winner", wire.TypeMidpoint: "midpoint", wire.TypeResetBegin: "reset_begin",
	wire.TypeShutdown: "shutdown", wire.TypeShardDigest: "shard_digest",
	wire.TypeApproxBounds: "approx_bounds", wire.TypeBatch: "batch",
	wire.TypeStatsPoll: "stats_poll", wire.TypeTreeStats: "tree_stats",
}
