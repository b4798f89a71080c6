package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strings"
)

// repeatRuns runs the selected workload n times, each in a fresh process
// with seeds seed, seed+1, …, and prints every metric's median,
// quartiles and interquartile spread (as a share of the median), plus
// each run's failed share. Fresh processes keep one run's heap, caches
// and goroutines out of the next one's numbers.
func repeatRuns(n int, seed uint64) error {
	self, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locating own binary: %w", err)
	}
	var pass []string
	flag.Visit(func(f *flag.Flag) {
		if f.Name != "repeat" && f.Name != "seed" {
			pass = append(pass, "--"+f.Name, f.Value.String())
		}
	})
	values := make(map[string][]float64)
	units := make(map[string]string)
	for i := 0; i < n; i++ {
		s := seed + uint64(i)
		cmd := exec.Command(self, append(pass, "--seed", fmt.Sprint(s))...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run with seed %d: %w", s, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var res result
		if err := json.NewDecoder(bytes.NewReader([]byte(lines[len(lines)-1]))).Decode(&res); err != nil {
			return fmt.Errorf("run with seed %d: parsing result: %w", s, err)
		}
		fmt.Printf("seed %d: correct=%v attempted=%d failed=%d (%.6f%%)\n", s, res.Correct, res.Attempted, res.Failed, 100*float64(res.Failed)/float64(res.Attempted))
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%-40s %14s %14s %14s %8s  unit\n", "metric", "q1", "median", "q3", "spread")
	for _, name := range names {
		q1, q2, q3 := quartiles(values[name])
		spread := 0.0
		if q2 != 0 {
			spread = (q3 - q1) / q2
		}
		fmt.Printf("%-40s %14.6g %14.6g %14.6g %7.2f%%  %s\n", name, q1, q2, q3, 100*spread, units[name])
	}
	return nil
}
