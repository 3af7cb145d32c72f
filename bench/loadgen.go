package main

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// clock is the generator's view of time; tests substitute a fake.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

// spinWindow is how close to the due time SleepUntil stops sleeping and
// polls the clock instead. Go's own timers fire 0.5–1 ms late on this kind
// of box (the runtime sleeps in whole milliseconds), which is several times
// the latency being measured; a nanosleep system call overshoots by about
// 0.1 ms, and the poll takes care of that.
const spinWindow = 200 * time.Microsecond

func (realClock) SleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		switch {
		case d <= 0:
			return
		case d > spinWindow:
			ts := syscall.NsecToTimespec(int64(d - spinWindow))
			_ = syscall.Nanosleep(&ts, nil) // an early wake-up only loops again
		default:
			runtime.Gosched() // let the connection's reader and writer run
		}
	}
}

// sample is the outcome of one operation.
type sample struct {
	kind opKind
	// late is how long after its due time the generator sent the request;
	// latency runs from the due time, so it includes late and with it the
	// wait a stalled server imposes on the requests queued behind the
	// stall. service runs from the actual send.
	late, latency, service time.Duration
	failed                 bool
	// waited: the sender was idle when the operation fell due, so late is
	// the generator's own wake-up error and not time queued behind a busy
	// connection.
	waited bool
}

// doFunc sends one operation and reports the kind it resolved to (a write
// with no eligible target degrades to an add), when the answer was
// complete, and whether it failed. Oracle checks happen inside, after the
// completion time is taken.
type doFunc func(sender int, o op) (kind opKind, done time.Time, failed bool)

// openResult is one open-loop phase.
type openResult struct {
	samples []sample
	elapsed time.Duration
	// backlogMax is the most operations that were ever due but not yet
	// sent.
	backlogMax int
}

// growing reports whether work was still piling up behind the senders when
// the phase ended, i.e. the offered rate was not sustained: the last
// operation went out late, and nearly as late as any. A queue behind one
// stall drains again and ends on time; a queue behind a server that is too
// slow only grows, so it ends at its longest.
func (r openResult) growing() bool {
	if len(r.samples) == 0 {
		return false
	}
	var maxLate time.Duration
	for _, s := range r.samples {
		if s.late > maxLate {
			maxLate = s.late
		}
	}
	endLate := r.samples[len(r.samples)-1].late
	return endLate > 10*time.Millisecond && 2*endLate > maxLate
}

// runOpen sends ops on their fixed schedule from the given number of
// sender goroutines (one connection each). A sender that finds the next
// operation already overdue sends it at once: the schedule never shifts,
// and the operation's latency still counts from when it was due.
func runOpen(clk clock, ops []op, senders int, do doFunc) openResult {
	res := openResult{samples: make([]sample, len(ops))}
	var next atomic.Int64
	var mu sync.Mutex
	start := clk.Now()
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				due := start.Add(ops[i].at)
				waited := clk.Now().Before(due)
				clk.SleepUntil(due)
				sent := clk.Now()
				// Operations are evenly ordered by due time, so those due by
				// now are a prefix of the schedule.
				dueCount := sort.Search(len(ops), func(k int) bool { return start.Add(ops[k].at).After(sent) })
				backlog := dueCount - (i + 1)
				mu.Lock()
				if backlog > res.backlogMax {
					res.backlogMax = backlog
				}
				mu.Unlock()
				kind, done, failed := do(s, ops[i])
				res.samples[i] = sample{
					kind: kind, late: sent.Sub(due), latency: done.Sub(due),
					service: done.Sub(sent), failed: failed, waited: waited,
				}
			}
		}(s)
	}
	wg.Wait()
	res.elapsed = clk.Now().Sub(start)
	return res
}

// closedResult is one closed-loop phase.
type closedResult struct {
	samples []sample
	elapsed time.Duration
	// ends holds, per client, when each of its operations completed, from
	// the start of the phase.
	ends [][]time.Duration
}

func (r closedResult) perSecond() float64 { return float64(len(r.samples)) / r.elapsed.Seconds() }

// blockRates cuts every client's operations into parts consecutive blocks
// of whole decks (so each block holds exactly the mix) and returns what the
// clients together complete per second at each block's pace.
func (r closedResult) blockRates(deck, parts int) []float64 {
	var out []float64
	for _, ends := range r.ends {
		n := len(ends) / parts / deck * deck
		if n == 0 {
			continue
		}
		from := time.Duration(0)
		for i := n; i <= len(ends); i += n {
			out = append(out, float64(n*len(r.ends))/(ends[i-1]-from).Seconds())
			from = ends[i-1]
		}
	}
	return out
}

// runClosed runs the given number of clients for dur: each sends its next
// operation as soon as the previous one is answered, so a slow server
// receives less load. draw yields a client's next operation.
func runClosed(clk clock, dur time.Duration, clients int, draw func(client int) op, do doFunc) closedResult {
	start := clk.Now()
	deadline := start.Add(dur)
	per := make([][]sample, clients)
	res := closedResult{ends: make([][]time.Duration, clients)}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for clk.Now().Before(deadline) {
				sent := clk.Now()
				kind, done, failed := do(c, draw(c))
				d := done.Sub(sent)
				per[c] = append(per[c], sample{kind: kind, latency: d, service: d, failed: failed})
				res.ends[c] = append(res.ends[c], clk.Now().Sub(start))
			}
		}(c)
	}
	wg.Wait()
	res.elapsed = clk.Now().Sub(start)
	for _, s := range per {
		res.samples = append(res.samples, s...)
	}
	return res
}

// micros converts the latencies of the samples keep selects to µs.
func micros(samples []sample, keep func(sample) bool, field func(sample) time.Duration) []float64 {
	var out []float64
	for _, s := range samples {
		if keep(s) {
			out = append(out, float64(field(s).Nanoseconds())/1e3)
		}
	}
	return out
}

func latencyOf(s sample) time.Duration { return s.latency }
func lateOf(s sample) time.Duration    { return s.late }

// maxRate applies the step rule to a ladder of open-loop steps in rising
// rate order: the answer is the highest rate reached without breaking the
// latency limit, failing a request, or leaving a growing backlog — and a
// step only counts when every step below it also passed.
func maxRate(steps []ladderStep, limitUs float64) float64 {
	best := 0.0
	for _, st := range steps {
		if st.p99Us > limitUs || st.failed > 0 || st.growing {
			break
		}
		best = st.rate
	}
	return best
}

// ladderStep is the verdict on one step of a rate ladder.
type ladderStep struct {
	rate    float64
	p99Us   float64
	failed  int
	growing bool
}
