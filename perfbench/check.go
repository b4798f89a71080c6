package main

import "fmt"

// The checks below read only the benchmark's own copy of the values;
// they share no code with the monitors (no topk.Oracle, no key codec).
// Nodes are ordered by value, larger first, with ties going to the
// smaller id — the order a plain sort of (value desc, id asc) gives.

// beats reports whether node a precedes node b in that order.
func beats(vals []int64, a, b int) bool {
	return vals[a] > vals[b] || vals[a] == vals[b] && a < b
}

// split validates the shape of a report — k distinct ids, strictly
// ascending, in range — and returns its weakest member and the strongest
// node outside it (-1 when every node is reported).
func split(vals []int64, k int, top []int, in []bool) (weakIn, strongOut int, err error) {
	if len(top) != k {
		return 0, 0, fmt.Errorf("report has %d ids, want %d", len(top), k)
	}
	for i, id := range top {
		if id < 0 || id >= len(vals) || i > 0 && id <= top[i-1] {
			return 0, 0, fmt.Errorf("report %v is not strictly ascending in [0, %d)", top, len(vals))
		}
	}
	weakIn = top[0]
	for _, id := range top[1:] {
		if beats(vals, weakIn, id) {
			weakIn = id
		}
	}
	for _, id := range top {
		in[id] = true
	}
	// Ids ascend, so a later node beats the current strongest outsider
	// only with a strictly larger value.
	strongOut = -1
	for id, v := range vals {
		if (strongOut < 0 || v > vals[strongOut]) && !in[id] {
			strongOut = id
		}
	}
	for _, id := range top {
		in[id] = false
	}
	return weakIn, strongOut, nil
}

// checker verifies reports against the benchmark's copy of the values.
// in holds a membership mark per node, all false between calls.
type checker struct {
	k   int
	eps float64
	in  []bool
}

// exact returns an error unless top is exactly the k first nodes in the
// order above: every reported node must beat every unreported one, which
// is what comparing with the first k of a full sort would establish.
func (c *checker) exact(vals []int64, top []int) error {
	weakIn, strongOut, err := split(vals, c.k, top, c.in)
	if err != nil || strongOut < 0 {
		return err
	}
	if !beats(vals, weakIn, strongOut) {
		return fmt.Errorf("reported node %d (value %d) is beaten by unreported node %d (value %d)", weakIn, vals[weakIn], strongOut, vals[strongOut])
	}
	return nil
}

// approx returns an error unless top is a valid ε-approximate report: some
// threshold θ's band [θ(1-ε), θ(1+ε)] covers both the smallest reported
// and the largest unreported value, i.e. out·(1-ε) <= in·(1+ε). Values
// are positive, so θ exists exactly then. The monitors compare keys
// value·n + tie-break, which refine a value by less than one unit; a
// band over keys therefore allows out·(1-ε) < (in+1)·(1+ε) in values,
// and that slack of 1+ε is all the check grants.
func (c *checker) approx(vals []int64, top []int) error {
	weakIn, strongOut, err := split(vals, c.k, top, c.in)
	if err != nil || strongOut < 0 {
		return err
	}
	in, out := float64(vals[weakIn]), float64(vals[strongOut])
	if out*(1-c.eps) >= (in+1)*(1+c.eps) {
		return fmt.Errorf("no (1±%g) band covers reported node %d (value %d) and unreported node %d (value %d)", c.eps, weakIn, vals[weakIn], strongOut, vals[strongOut])
	}
	return nil
}

// check applies the workload's criterion: exact, or ε-valid in ε mode.
func (c *checker) check(vals []int64, top []int) error {
	if c.eps > 0 {
		return c.approx(vals, top)
	}
	return c.exact(vals, top)
}
