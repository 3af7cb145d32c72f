package main

import (
	"math"
	"sort"
)

// sortedCopy returns vs sorted ascending without touching the input.
func sortedCopy(vs []float64) []float64 {
	out := append([]float64(nil), vs...)
	sort.Float64s(out)
	return out
}

// percentile reads the p-th percentile (0 < p < 100) off an ascending
// slice by the nearest-rank rule; an empty slice reads 0.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(p, len(sorted))-1]
}

// rank is the 1-based nearest rank of the p-th percentile among n samples.
// The small slack keeps p·n from landing a hair above a whole number (99.9%
// of 10000 is 9990, not 9991).
func rank(p float64, n int) int {
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	return r
}

func median(vs []float64) float64 { return percentile(sortedCopy(vs), 50) }

// quietPercentile says which of a run's windows stands for the run. A run
// is cut into windows of about half a second; interference from outside the
// guest comes in bursts of about that length and only ever makes a window
// slower, so the windows at the fast end are the ones that measured the
// program. The run's figure is the window a tenth of the windows beat: far
// enough from the minimum that one lucky window does not set it, and still
// reached when most of a run was disturbed.
const quietPercentile = 10

// windowMedians cuts vs, which are in time order, into consecutive windows
// of n values and returns the median of every full window.
func windowMedians(vs []float64, n int) []float64 {
	var out []float64
	for i := 0; i+n <= len(vs); i += n {
		out = append(out, median(vs[i:i+n]))
	}
	return out
}

// quietLow reduces per-window figures where lower is better (latencies) to
// the run's figure; quietHigh does the same where higher is better (rates).
func quietLow(windows []float64) float64 {
	return percentile(sortedCopy(windows), quietPercentile)
}

func quietHigh(windows []float64) float64 {
	return percentile(sortedCopy(windows), 100-quietPercentile)
}

// tailLadder is the set of percentiles a report may quote.
var tailLadder = []float64{50, 90, 99, 99.9, 99.99}

// highestPercentile picks the highest percentile of tailLadder that still
// has at least ten of n samples beyond it; anything higher is set by a
// handful of requests and does not repeat. Fewer than twenty samples
// support no tail at all and read as the median.
func highestPercentile(n int) float64 {
	best := tailLadder[0]
	for _, p := range tailLadder {
		if n-rank(p, n) >= 10 {
			best = p
		}
	}
	return best
}

// dist summarises one latency class: the sample count, the median, p99 and
// the highest percentile the count supports.
type dist struct {
	N     int     `json:"n"`
	P50   float64 `json:"p50"`
	P99   float64 `json:"p99"`
	TailP float64 `json:"tail_p"`
	Tail  float64 `json:"tail"`
}

func summarise(vs []float64) dist {
	s := sortedCopy(vs)
	p := highestPercentile(len(s))
	return dist{N: len(s), P50: percentile(s, 50), P99: percentile(s, 99), TailP: p, Tail: percentile(s, p)}
}
