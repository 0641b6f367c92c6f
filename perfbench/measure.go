package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed interval of the traced run: a batch of calls into
// one layer's entry point, or a phase that contains such batches.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 for a root span
	Run     uint64 `json:"run"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // since the log was created
	EndNS   int64  `json:"end_ns"`
	Calls   int    `json:"calls,omitempty"`
}

// spanLog keeps every span of one run in memory until the run ends.
type spanLog struct {
	run   uint64
	t0    time.Time
	spans []span
}

func newSpanLog(seed uint64) *spanLog {
	t0 := time.Now()
	return &spanLog{run: uint64(t0.UnixNano())<<8 ^ seed, t0: t0}
}

// record appends a finished span and returns its id.
func (l *spanLog) record(name string, parent int, start, end time.Time, calls int) int {
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{
		ID: id, Parent: parent, Run: l.run, Name: name,
		StartNS: start.Sub(l.t0).Nanoseconds(), EndNS: end.Sub(l.t0).Nanoseconds(), Calls: calls,
	})
	return id
}

// phase runs fn inside a span and returns the span's id and duration.
// fn receives the id so it can parent its own spans.
func (l *spanLog) phase(name string, parent int, fn func(id int) error) (time.Duration, error) {
	start := time.Now()
	id := l.record(name, parent, start, start, 0)
	err := fn(id)
	end := time.Now()
	l.spans[id-1].EndNS = end.Sub(l.t0).Nanoseconds()
	return end.Sub(start), err
}

// writeFile writes the spans as JSON lines.
func (l *spanLog) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timeCalls calls fn(i) for every i in [0, n), in batches of batch
// calls; each batch is one span under parent. It returns the median
// over batches of the host nanoseconds per call.
func (l *spanLog) timeCalls(name string, parent, n, batch int, fn func(i int)) float64 {
	var perCall []float64
	for lo := 0; lo < n; lo += batch {
		hi := min(lo+batch, n)
		start := time.Now()
		for i := lo; i < hi; i++ {
			fn(i)
		}
		end := time.Now()
		l.record(name, parent, start, end, hi-lo)
		perCall = append(perCall, float64(end.Sub(start).Nanoseconds())/float64(hi-lo))
	}
	return median(perCall)
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// liveHeapMB forces a collection and returns the live Go heap.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// heapSampler records the live heap the collector reported after its
// latest cycle, at a fixed interval.
type heapSampler struct {
	stop    chan struct{}
	done    sync.WaitGroup
	samples []heapSample
}

type heapSample struct {
	at time.Time
	mb float64
}

// sampleHeap starts sampling the live heap every interval.
func sampleHeap(interval time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			metrics.Read(s)
			if s[0].Value.Kind() == metrics.KindUint64 {
				h.samples = append(h.samples, heapSample{time.Now(), float64(s[0].Value.Uint64()) / 1e6})
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// Stop ends sampling, waits for the sampler to exit, and returns the
// median and the largest live heap sampled at or after from, in MB.
func (h *heapSampler) Stop(from time.Time) (med, peak float64) {
	close(h.stop)
	h.done.Wait()
	var mbs []float64
	for _, s := range h.samples {
		if !s.at.Before(from) {
			mbs = append(mbs, s.mb)
			peak = max(peak, s.mb)
		}
	}
	return median(mbs), peak
}

// printFingerprint reports the host the numbers were measured on.
func printFingerprint(r *run) {
	r.note("host              cpu=%q nproc=%d GOMAXPROCS=%d go=%s %s/%s",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	r.note("workload          %s seed=%d seconds=%.0f trace=%v", r.o.workload, r.o.seed, r.o.budget.Seconds(), r.o.trace)
}

// cpuModel returns the CPU model name the kernel reports, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// repeat runs rep at least minReps times, then again while the next
// rep, at the mean length so far, would end less than half a rep past
// budget. It returns how many reps ran; a failed rep counts as run.
func repeat(budget time.Duration, minReps int, rep func(i int)) int {
	start := time.Now()
	i := 0
	for ; ; i++ {
		elapsed := time.Since(start)
		if i >= minReps && (i == 0 || elapsed+elapsed/time.Duration(2*i) >= budget) {
			return i
		}
		rep(i)
	}
}

// fmtMetric renders a metric for the report lines.
func fmtMetric(name string, v float64, unit string) string {
	return fmt.Sprintf("%-32s %.6g %s", name, v, unit)
}
