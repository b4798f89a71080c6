// Command perfbench is the repository's end-to-end benchmark. It drives
// one workload through the public topk API from a single closed-loop
// caller, checks every report against its own copy of the inputs, and
// prints one JSON object as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones (throughput, report
// latency, CPU, model messages and bytes, set-up time, live heap); with
// --trace 1 the same workload runs twice — untraced, then traced over
// the identical input prefix — and the metrics are the per-layer ones.
// See README.md for the workloads, metrics and their noise.
//
// Usage:
//
//	bash perfbench/run.sh --workload reset-seq --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload quiet-tcp --repeat 10      # fresh process per seed
//	bash perfbench/run.sh --reference conc-reset --seconds 20   # README reference figures
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line settings of one run.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
	calls   int    // stop after this many update calls instead of after seconds (0: time-bound); the short-mode tests set it
	out     string // directory for span and profile files of traced runs
}

func main() {
	var (
		workload  = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		reference = flag.String("reference", "", "reference figure to run instead of a workload: "+strings.Join(referenceNames(), ", "))
		seed      = flag.Uint64("seed", 1, "input and protocol seed")
		seconds   = flag.Float64("seconds", 30, "length of the timed loop")
		trace     = flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
		repeat    = flag.Int("repeat", 0, "run the workload this many times in fresh processes, seeds seed..seed+N-1, and print medians and quartiles")
		out       = flag.String("out", "", "directory for traced runs' spans and CPU profile (default $CARGO_TARGET_DIR or .bench_build)")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fail(errors.New("--trace must be 0 or 1"))
	}
	name := *workload
	sp, ok := workloads[name]
	if *reference != "" {
		name = *reference
		sp, ok = references[name]
	}
	if !ok {
		fail(fmt.Errorf("unknown workload %q (workloads: %s; references: %s)", name, strings.Join(workloadNames(), ", "), strings.Join(referenceNames(), ", ")))
	}
	if *repeat > 0 {
		if err := repeatRuns(*repeat, *seed); err != nil {
			fail(err)
		}
		return
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, out: *out}
	if o.out == "" {
		o.out = os.Getenv("CARGO_TARGET_DIR")
		if o.out == "" {
			o.out = ".bench_build"
		}
	}
	res, err := run(sp, o)
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

// fail reports a run that could not be carried out. It prints no result
// line, so a harness reading the last line sees no JSON object.
func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func workloadNames() []string  { return sortedKeys(workloads) }
func referenceNames() []string { return sortedKeys(references) }

func sortedKeys(m map[string]*spec) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// quartiles returns the three cut points of statistics.quantiles(xs,
// n=4) in Python's default "exclusive" method, so spreads printed here
// match the ones a Python harness computes from the same values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	if len(d) == 1 {
		return d[0], d[0], d[0]
	}
	m := len(d) + 1
	q := make([]float64, 3)
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, len(d)-1))
		delta := float64(i*m - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	if len(d)%2 == 1 {
		return d[len(d)/2]
	}
	return (d[len(d)/2-1] + d[len(d)/2]) / 2
}

// percentile returns the p-th percentile (0..100) of sorted xs by
// nearest rank.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}
