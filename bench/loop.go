package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// window measures what the Go runtime sees between begin and end: bytes
// allocated, and the memory in use (heap spans in use plus goroutine
// stacks) sampled at 20 Hz. begin drops set-up garbage first so that the
// samples belong to the measured work.
type window struct {
	startAlloc uint64
	start      time.Time
	inuse      []float64 // bytes, one sample per tick
	stop       chan struct{}
	done       sync.WaitGroup
}

func inuseBytes(m *runtime.MemStats) float64 { return float64(m.HeapInuse + m.StackInuse) }

func beginWindow() *window {
	runtime.GC()
	debug.FreeOSMemory()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	w := &window{startAlloc: m.TotalAlloc, inuse: []float64{inuseBytes(&m)}, stop: make(chan struct{})}
	w.done.Add(1)
	go func() {
		defer w.done.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		var m runtime.MemStats
		for {
			select {
			case <-w.stop:
				return
			case <-tick.C:
				runtime.ReadMemStats(&m)
				w.inuse = append(w.inuse, inuseBytes(&m))
			}
		}
	}()
	w.start = time.Now()
	return w
}

// end stops the sampler and returns the bytes allocated and the 95th
// percentile of the memory-in-use samples.
func (w *window) end() (allocated uint64, inuseP95 float64) {
	close(w.stop)
	w.done.Wait()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	w.inuse = append(w.inuse, inuseBytes(&m))
	return m.TotalAlloc - w.startAlloc, quantile(sortedCopy(w.inuse), 0.95)
}

// op is one completed operation of a closed loop.
type op struct {
	client int
	item   int           // index into the mix
	lat    time.Duration // as the client saw it
}

// closedLoop runs `clients` callers for dur. Each caller walks its own
// order of the mix again and again, sending the next request only when
// the previous one has been answered. do reports whether the answer was
// right. A request that is still in flight when the window closes is
// not counted as attempted. Every calEvery the callers meet between two
// requests and one of them takes a memory sample.
func closedLoop(clients int, dur time.Duration, order [][]int, mem *memSpeed, do func(client, item int) error) (ops []op, failed []error) {
	perClient := make([][]op, clients)
	perErr := make([][]error, clients)
	var wg sync.WaitGroup
	meet := newMeeting(clients)
	var nextCal atomic.Int64 // UnixNano; zero, so the loop starts with a sample
	deadline := time.Now().Add(dur)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			defer meet.leave()
			for i := 0; ; i++ {
				if time.Now().UnixNano() >= nextCal.Load() {
					meet.meet(func() {
						mem.sample()
						nextCal.Store(time.Now().Add(calEvery).UnixNano())
					})
				}
				item := order[c][i%len(order[c])]
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				err := do(c, item)
				t1 := time.Now()
				if t1.After(deadline) {
					return
				}
				if err != nil {
					perErr[c] = append(perErr[c], err)
					continue
				}
				perClient[c] = append(perClient[c], op{client: c, item: item, lat: t1.Sub(t0)})
			}
		}(c)
	}
	wg.Wait()
	for c := range perClient {
		ops = append(ops, perClient[c]...)
		failed = append(failed, perErr[c]...)
	}
	return ops, failed
}

// tailKind says what lat_tail_ms is on a workload. It is fixed by the
// workload, never by how many samples a run happened to collect.
type tailKind int

const (
	// tailP95 is the 95th percentile over all samples: the serving
	// workloads, whose windows hold 400 to 4 000 requests, so that at
	// least ten samples lie beyond it.
	tailP95 tailKind = iota
	// tailSlowestKind is the median latency of the slowest kind of
	// operation: advise_greedy and ingest_append, whose windows hold two
	// dozen operations of three or four kinds.
	tailSlowestKind
)

// reportLoop turns a window's operations into the end-to-end metrics
// every workload shares. Timings are corrected for memory speed (see
// calib.go); the raw values go into a note.
//
// ops_per_s is operations per second of caller time: each caller's
// count over the sum of its latencies, summed over the callers. The
// moments the callers spend meeting for a memory sample are not in it.
//
// lat_mix_ms is the median latency of each kind of operation of the mix,
// averaged over the mix. The plain median of all samples falls between
// two operations of very different cost when the mix is small and jumps
// from one to the other between runs (measured spread 19 % on
// serve_scan_paged against 4 % for this definition); with a single kind
// of operation the two are the same number.
func reportLoop(r *run, ops []op, tail tailKind, mem *memSpeed, allocated uint64, inuseP95 float64) {
	byItem := make(map[int][]float64)
	busy := make(map[int]float64) // client → seconds
	count := make(map[int]float64)
	all := make([]float64, len(ops))
	for i, o := range ops {
		all[i] = ms(o.lat)
		byItem[o.item] = append(byItem[o.item], all[i])
		busy[o.client] += o.lat.Seconds()
		count[o.client]++
	}
	sort.Float64s(all)
	var medians []float64
	for _, v := range byItem {
		medians = append(medians, median(v))
	}
	var rate float64
	for c := range busy {
		rate += count[c] / busy[c]
	}
	mix := sum(medians) / float64(len(medians))
	tailMS, how := quantile(all, 0.95), fmt.Sprintf("the p95 of all samples (%d beyond it)", len(all)-int(0.95*float64(len(all))))
	if tail == tailSlowestKind {
		tailMS, how = quantile(sortedCopy(medians), 1), "the median of the slowest kind of operation"
	}
	f := mem.factor()
	r.set("ops_per_s", rate*f)
	r.set("lat_mix_ms", mix/f)
	r.set("lat_tail_ms", tailMS/f)
	r.set("alloc_kb_per_op", float64(allocated)/1024/float64(len(ops)))
	r.set("mem_inuse_p95_mb", inuseP95/(1<<20))
	r.note("%d operations of %d kinds by %d callers; lat_tail_ms is %s", len(ops), len(byItem), len(busy), how)
	r.note("window: %v; as measured, before the correction: ops_per_s %.4g, lat_mix_ms %.4g, lat_tail_ms %.4g", mem, rate, mix, tailMS)
}

// latencies returns the operations' latencies in milliseconds, sorted.
func latencies(ops []op) []float64 {
	out := make([]float64, len(ops))
	for i, o := range ops {
		out[i] = ms(o.lat)
	}
	sort.Float64s(out)
	return out
}
