package main

import (
	"fmt"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// Memory-speed correction.
//
// The boxes this benchmark runs on share their memory system with other
// tenants. Their arithmetic speed is steady (a fixed xorshift loop: 1-3 %
// between runs), their memory speed is not: a read-and-write pass over
// a 4 MB buffer took between 780 and 950 us within an hour, and over
// twenty runs of a workload it explained 66-85 % of the variance of the
// serving workloads' throughput and latency (log-log, slope 1.0-2.3). So
// every run times such passes again and again while it measures, at
// moments when nothing else of the benchmark runs, and divides its
// timings by the median sample over memNominalUS: timings are reported as
// at nominal memory speed. The README ("Memory-speed correction") has the
// sets of runs this was chosen on and what it costs.
const (
	memKernelBytes = 4 << 20
	// memPasses consecutive passes make one sample: the first finds the
	// buffer in memory, the later ones a growing part of it in the
	// caches, so a sample sees both. Of the ways tried to turn a window's
	// passes into one number (first passes only, later ones only, all of
	// them, means, trimmed means) the median of such sums left the
	// smallest worst-case spread, by a small margin.
	memPasses = 8
	// memNominalUS is a sample's time on the recording box in a quiet
	// hour. It only fixes the scale: corrected and raw timings agree when
	// the box is as fast as then.
	memNominalUS = 3900.0
	// calEvery is how often the callers of a closed loop meet to take a
	// sample.
	calEvery = 500 * time.Millisecond
)

var (
	memBuf     []uint64
	memBufOnce sync.Once
	memBufErr  error
)

// mapMemBuf maps the buffer of the memory passes; every run does it
// first. The buffer lives outside the Go heap. On the heap it would be
// live data: the collector would run less often, and a workload that
// allocates fast on a small heap runs much faster for it (advise_greedy:
// 2.7 searches a second with 36 MB of such ballast, 1.6 without).
func mapMemBuf() error {
	memBufOnce.Do(func() {
		b, err := syscall.Mmap(-1, 0, memKernelBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			memBufErr = fmt.Errorf("mapping the buffer of the memory passes: %w", err)
			return
		}
		memBuf = unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), len(b)/8)
		for i := range memBuf {
			memBuf[i] = uint64(i) // touch every page now
		}
	})
	return memBufErr
}

// memSpeed collects the samples of one phase of a run.
type memSpeed struct {
	mu sync.Mutex
	us []float64
}

// sample times memPasses passes over the buffer. Call it when nothing
// else of the benchmark runs.
func (m *memSpeed) sample() {
	m.mu.Lock()
	defer m.mu.Unlock()
	t0 := time.Now()
	var s uint64
	for pass := 0; pass < memPasses; pass++ {
		for i := range memBuf {
			s += memBuf[i]
			memBuf[i] = s
		}
	}
	m.us = append(m.us, us(time.Since(t0)))
}

// factor is how much slower than nominal the memory system was: timings
// are divided by it, rates multiplied.
func (m *memSpeed) factor() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.us) == 0 {
		return 1
	}
	return median(m.us) / memNominalUS
}

func (m *memSpeed) String() string {
	m.mu.Lock()
	n, med := len(m.us), median(m.us)
	m.mu.Unlock()
	return fmt.Sprintf("memory sample %.0f us (median of %d, nominal %.0f): factor %.3f", med, n, memNominalUS, med/memNominalUS)
}

// meeting lets the callers of a closed loop stop together: the last one
// to arrive runs fn while the others wait, then all go on. A caller that
// leaves for good no longer counts.
type meeting struct {
	mu      sync.Mutex
	cond    *sync.Cond
	parties int
	waiting int
	round   int
}

func newMeeting(parties int) *meeting {
	m := &meeting{parties: parties}
	m.cond = sync.NewCond(&m.mu)
	return m
}

func (m *meeting) meet(fn func()) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.waiting++
	if m.waiting < m.parties {
		for round := m.round; round == m.round; {
			m.cond.Wait()
		}
		return
	}
	fn()
	m.release()
}

func (m *meeting) leave() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.parties--
	if m.parties > 0 && m.waiting >= m.parties {
		m.release() // the others were waiting for this one; they go on without a sample
	}
}

func (m *meeting) release() {
	m.waiting = 0
	m.round++
	m.cond.Broadcast()
}
