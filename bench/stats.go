package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"sort"
	"time"

	"github.com/caba-sim/caba/internal/stats"
)

// percentile returns the p-th percentile (0..100) of vs, interpolating
// linearly between the closest ranks. vs need not be sorted; an empty
// slice yields 0.
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	if lo < 0 {
		return s[0]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(vs []float64) float64 { return percentile(vs, 50) }

// hdPercentile is the Harrell–Davis estimate of the p-th percentile
// (0..100) of vs: the mean of all order statistics, the i-th of n weighted
// by the mass a Beta(p'(n+1), (1−p')(n+1)) distribution (p' = p/100) puts
// on [(i−1)/n, i/n]. Where the sorted values climb steeply, as cell
// latencies do between applications, it moves smoothly with them where a
// single order statistic jumps. Where the Beta density is unbounded (fewer
// than about 1/p' or 1/(1−p') samples) it falls back to percentile.
func hdPercentile(vs []float64, p float64) float64 {
	n := len(vs)
	a, b := p/100*float64(n+1), (1-p/100)*float64(n+1)
	if n < 2 || a < 1 || b < 1 {
		return percentile(vs, p)
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	density := func(x float64) float64 {
		if x <= 0 || x >= 1 {
			return 0
		}
		return math.Exp((a-1)*math.Log(x) + (b-1)*math.Log1p(-x) + lab - la - lb)
	}
	// Simpson's rule on each 1/n interval; dividing by the summed weights
	// cancels most of its error.
	const steps = 64 // even
	sum, total := 0.0, 0.0
	for i := 0; i < n; i++ {
		lo, h := float64(i)/float64(n), 1/float64(n*steps)
		w := density(lo) + density(lo+float64(steps)*h)
		for j := 1; j < steps; j++ {
			w += float64(2+2*(j%2)) * density(lo+float64(j)*h)
		}
		w *= h / 3
		sum += w * s[i]
		total += w
	}
	return sum / total
}

// makespan is the length of a closed loop of n executors over cells that
// take costs, in dispatch order: each cell starts on the executor that
// comes free first.
func makespan(costs []float64, n int) float64 {
	free := make([]float64, max(n, 1))
	for _, c := range costs {
		i := 0
		for j := range free {
			if free[j] < free[i] {
				i = j
			}
		}
		free[i] += c
	}
	end := 0.0
	for _, f := range free {
		end = max(end, f)
	}
	return end
}

// tailPercentile is the highest percentile with at least ten samples
// beyond it, p(1−10/n); below 11 samples there is none and it returns 0.
func tailPercentile(n int) float64 {
	if n <= 10 {
		return 0
	}
	return 100 * (1 - 10/float64(n))
}

// quartiles returns the three cut points that split vs into four equal
// groups by the "exclusive" method — the default of Python's
// statistics.quantiles(vs, n=4), so spreads computed here and by an
// external checker agree.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	ld := len(s)
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// geomean is the geometric mean of positive values (0 when empty).
func geomean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vs)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// digest hashes the cells' statistics by their JSON encoding: a
// workload's result_digest.
func digest(st []*stats.Sim) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, s := range st {
		if err := enc.Encode(s); err != nil {
			panic(err) // a struct of counters and finite floats always encodes
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
