package main

import (
	"bufio"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cost is what one measured interval consumed.
type cost struct {
	wall  time.Duration
	cpu   time.Duration // user + system CPU of the process (getrusage)
	alloc uint64        // Go heap bytes allocated
	steal time.Duration // host CPU steal over the interval (/proc/stat)
	rss   float64       // peak resident set of the process, MiB
}

// meter is an interval in progress.
type meter struct {
	t0    time.Time
	cpu0  time.Duration
	a0    uint64
	s0    time.Duration
	steal bool
	rss   *rssSampler
}

func startCost() meter {
	s0, ok := hostSteal()
	return meter{t0: time.Now(), cpu0: processCPU(), a0: heapAllocBytes(), s0: s0, steal: ok, rss: sampleRSS()}
}

func (m meter) stop() cost {
	c := cost{wall: time.Since(m.t0), cpu: processCPU() - m.cpu0, alloc: heapAllocBytes() - m.a0}
	c.rss = m.rss.finish()
	if s1, ok := hostSteal(); ok && m.steal {
		c.steal = s1 - m.s0
	}
	return c
}

// rssSampler reads the process's resident set every few milliseconds
// while an interval runs and keeps the largest reading. Unlike the
// process-lifetime maximum of getrusage, it gives each round its own
// peak, so the run can report their median. It reuses one open file and
// buffer, so sampling allocates nothing.
type rssSampler struct {
	stop, done chan struct{}
	f          *os.File // /proc/self/statm; nil where it cannot be read
	buf        [128]byte
	peak       uint64
}

func sampleRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s.f, _ = os.Open("/proc/self/statm") // nil file: the peak reads 0
	go func() {
		defer close(s.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			s.note()
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// note reads the second field of statm, the resident pages.
func (s *rssSampler) note() {
	if s.f == nil {
		return
	}
	n, _ := s.f.ReadAt(s.buf[:], 0)
	i := 0
	for i < n && s.buf[i] != ' ' {
		i++
	}
	var pages uint64
	for i++; i < n && s.buf[i] >= '0' && s.buf[i] <= '9'; i++ {
		pages = pages*10 + uint64(s.buf[i]-'0')
	}
	if b := pages * uint64(os.Getpagesize()); b > s.peak {
		s.peak = b
	}
}

// finish stops the sampler and returns the peak in MiB.
func (s *rssSampler) finish() float64 {
	close(s.stop)
	<-s.done
	s.note()
	if s.f != nil {
		s.f.Close()
	}
	return float64(s.peak) / (1 << 20)
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func heapAllocBytes() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// hostSteal reads the cumulative steal time of all host CPUs from
// /proc/stat (USER_HZ ticks; 100 per second on Linux). It only reads.
func hostSteal() (time.Duration, bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, false
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, false
	}
	ticks, err := strconv.ParseUint(fields[8], 10, 64)
	if err != nil {
		return 0, false
	}
	return time.Duration(ticks) * 10 * time.Millisecond, true
}

// median of xs (0 for none).
func median(xs []float64) float64 {
	return percentile(xs, 50)
}

// percentile is the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p == 50 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	rank := int(math.Ceil(p/100*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank]
}

// tail is the highest of the usual percentiles that still has at least
// ten samples beyond it; below forty samples it is the median, since no
// percentile would be a tail.
func tail(xs []float64) float64 {
	if len(xs) < 40 {
		return median(xs)
	}
	for _, p := range []float64{99.9, 99, 95, 90, 75} {
		if float64(len(xs))*(1-p/100) >= 10 {
			return percentile(xs, p)
		}
	}
	return median(xs)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// z95 is the two-sided 95% normal quantile.
const z95 = 1.959963984540054

// wilsonHalfWidth is the half-width of the Wilson-score 95% interval of
// k successes in n trials, clamped to [0, 1] like a rate.
func wilsonHalfWidth(k, n int) float64 {
	if n == 0 {
		return 0
	}
	fn := float64(n)
	p := float64(k) / fn
	z2 := z95 * z95
	den := 1 + z2/fn
	center := (p + z2/(2*fn)) / den
	half := z95 * math.Sqrt(p*(1-p)/fn+z2/(4*fn*fn)) / den
	lo, hi := math.Max(0, center-half), math.Min(1, center+half)
	return (hi - lo) / 2
}

// waldHalfWidth is the normal-approximation 95% half-width.
func waldHalfWidth(k, n int) float64 {
	if n == 0 {
		return 0
	}
	p := float64(k) / float64(n)
	return z95 * math.Sqrt(p*(1-p)/float64(n))
}
