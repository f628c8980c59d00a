package engine

import (
	"context"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"testing"
	"unsafe"

	"repro/internal/optimizer"
	"repro/internal/rel"
	"repro/internal/schema"
	"repro/internal/xmlgen"
)

// randomSlots builds a slot list the way pipelines fill one: each slot
// holds arenas of whole rows, width values each. The key column holds
// INT keys from a small domain, so keys repeat across runs, in one of
// several shapes — globally ascending (one run), ascending per slot (one
// run per slot, interleaving with its neighbours, the shape of a sorted
// union's branches), descending (every row its own run), seek-shaped
// (rows in pairs, each pair a run: n/2 runs), or random — and the column
// after the key, if there is one, numbers the rows so a row is
// recognisable by value too. With an ORDER BY every arena gets its key
// block, from the sink's pool, as the sink fills them; releaseSlots
// returns them.
func randomSlots(rng *rand.Rand, width, orderPos int) []outSlot {
	slots := make([]outSlot, rng.Intn(7))
	shape := rng.Intn(5)
	serial, asc := 0, 0
	for si := range slots {
		s := &slots[si]
		s.width = width
		if shape == 1 {
			asc = rng.Intn(3)
		}
		for a := rng.Intn(4); a > 0; a-- {
			n := rng.Intn(9)
			s.rows += n
			if width == 0 {
				continue
			}
			arena := make([]rel.Value, n*width)
			var kb *keyBlock
			if orderPos >= 0 {
				kb = takeKeyBlock()
				s.keys = append(s.keys, kb)
			}
			for r := 0; r < n; r++ {
				row := arena[r*width : (r+1)*width]
				for c := range row {
					row[c] = rel.Str("c" + strconv.Itoa(c))
				}
				if orderPos >= 0 {
					switch shape {
					case 0, 1:
						asc += rng.Intn(2)
					case 2:
						asc = 1000 - serial
					case 3:
						asc = rng.Intn(5)
					default:
						// Pair p starts at 1000-3p+{0,1} and its second key
						// is the first or one more, so every key of a pair
						// lies above every later pair's.
						if serial%2 == 0 {
							asc = 1000 - 3*(serial/2) + rng.Intn(2)
						} else {
							asc += rng.Intn(2)
						}
					}
					row[orderPos] = rel.Int(int64(asc))
					kb[r] = int64(asc)
				}
				if width > 1 {
					row[(orderPos+1+width)%width] = rel.Int(int64(serial))
				}
				serial++
			}
			s.arenas = append(s.arenas, arena)
		}
	}
	return slots
}

// TestAssembleMatchesStableSort is the merge's differential: for random
// slot lists — no slots, empty slots, width 0, one run to one run per
// row, seek-shaped lists of n/2 runs, keys duplicated across runs, and
// no ORDER BY at all — assemble must return exactly the row sequence
// sort.SliceStable gives on the plain concatenation (the very same rows,
// by address), every row with cap == len.
func TestAssembleMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(engineTestSeed(t)))
	multiRun := 0
	for iter := 0; iter < 3000; iter++ {
		width := rng.Intn(4)
		orderPos := rng.Intn(width+1) - 1
		slots := randomSlots(rng, width, orderPos)

		var want [][]rel.Value
		for _, s := range slots {
			if width == 0 {
				for r := 0; r < s.rows; r++ {
					want = append(want, nil)
				}
			}
			for _, arena := range s.arenas {
				for k := 0; k < len(arena); k += width {
					want = append(want, arena[k:k+width])
				}
			}
		}
		if orderPos >= 0 {
			less := func(i, j int) bool { return want[i][orderPos].Compare(want[j][orderPos]) < 0 }
			if !sort.SliceIsSorted(want, less) {
				multiRun++
			}
			sort.SliceStable(want, less)
		}
		got := assemble(slots, orderPos)
		releaseSlots(slots)
		if len(got) != len(want) {
			t.Fatalf("iter %d: %d rows, want %d", iter, len(got), len(want))
		}
		for i := range got {
			if len(got[i]) != width || cap(got[i]) != width {
				t.Fatalf("iter %d row %d: len %d cap %d, want both %d", iter, i, len(got[i]), cap(got[i]), width)
			}
			if width > 0 && &got[i][0] != &want[i][0] {
				t.Fatalf("iter %d (width %d, order by %d): row %d is %v, want %v",
					iter, width, orderPos, i, got[i], want[i])
			}
		}
	}
	t.Logf("%d multi-run cases", multiRun)
	if multiRun < 500 {
		t.Fatalf("of 3000 cases %d had more than one run: the generator no longer exercises the merge", multiRun)
	}
}

// TestAssembledRowsDoNotShareCapacity: rows are cut from a shared arena,
// so an append to one must reallocate rather than overwrite the first
// value of the next.
func TestAssembledRowsDoNotShareCapacity(t *testing.T) {
	arena := []rel.Value{rel.Int(1), rel.Str("a"), rel.Int(2), rel.Str("b"), rel.Int(3), rel.Str("c")}
	kb := &keyBlock{1, 2, 3}
	rows := assemble([]outSlot{{arenas: [][]rel.Value{arena}, keys: []*keyBlock{kb}, rows: 3, width: 2}}, 0)
	for i := range rows {
		_ = append(rows[i], rel.Str("overflow"))
	}
	for i, want := range []int64{1, 2, 3} {
		if got := arena[2*i]; !got.BitEqual(rel.Int(want)) {
			t.Fatalf("appending to a row overwrote its neighbour: arena[%d] = %v, want %d", 2*i, got, want)
		}
	}
}

// TestPrepareRejectsOrderByMissingFromOutput: the ORDER BY position is
// resolved when the plan is compiled, so a plan ordering by a column
// its branches do not project fails in Prepare — with the error the
// executors have always reported — not after every branch has run.
func TestPrepareRejectsOrderByMissingFromOutput(t *testing.T) {
	fx := equivalenceFixtures(t)["movie-hybrid"]
	good := fx.plans[0]
	q := *good.Query
	q.OrderBy = "no_such_column"
	bad := &optimizer.Plan{Query: &q, Branches: good.Branches}
	const want = "engine: ORDER BY column no_such_column missing from output"
	if _, err := Prepare(fx.built, bad); err == nil || err.Error() != want {
		t.Fatalf("Prepare: err = %v, want %q", err, want)
	}
	if _, err := fx.built.PreparedContext(context.Background(), bad); err == nil || err.Error() != want {
		t.Fatalf("PreparedContext: err = %v, want %q", err, want)
	}
	if _, err := ExecuteReference(fx.built, bad); err == nil || err.Error() != want {
		t.Fatalf("ExecuteReference: err = %v, want %q", err, want)
	}
	pp, err := Prepare(fx.built, good)
	if err != nil {
		t.Fatal(err)
	}
	if pp.orderPos < 0 || pp.cols[pp.orderPos] != good.Query.OrderBy {
		t.Fatalf("orderPos = %d for ORDER BY %s over %v", pp.orderPos, good.Query.OrderBy, pp.cols)
	}
}

// resultBytesDoc and resultBytesQueries are TestResultBytesStayGone's
// fixture: a Movie document of one and a half morsels of movies, and a
// sorted union that arrives as one run, another, and one of several
// runs.
func resultBytesDoc() *xmlgen.Doc {
	return xmlgen.GenerateMovie(schema.Movie(), xmlgen.MovieOptions{Movies: 3 * morselRows / 2, Seed: 77})
}

var resultBytesQueries = []string{`//movie/year`, `//movie/title`, `//movie/(title | actor)`}

// TestResultBytesStayGone bounds what one prepared execution allocates:
// on a resident fixture, the result costs one 24-byte header and width
// 40-byte values per row, and everything else an execution allocates
// (slots, arena lists, pooled state, run cursors, size-class rounding)
// must fit in 15 % on top — whether the sorted union arrives as a
// single run or as several that assemble merges. A growth-append of
// the header slice, a second header slice, a scratch slice for the
// merge, or a fatter rel.Value each breaks the bound. The measured runs
// execute with the collector off, so a GC cannot empty the state pools
// mid-measurement; under the race detector, which drops pooled items on
// purpose, the executions still run but the bound is not checked.
func TestResultBytesStayGone(t *testing.T) {
	if size := unsafe.Sizeof(rel.Value{}); size != 40 {
		t.Skipf("rel.Value is %d bytes on this platform; the bound is stated for 64-bit", size)
	}
	queries := resultBytesQueries
	multiRun := []bool{false, false, true}
	built, plans := buildPlans(t, schema.Movie(), resultBytesDoc(), queries, nil)
	ctx := context.Background()
	for pi, plan := range plans {
		pp, err := built.Prepared(plan)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2} {
			res, err := pp.ExecuteContextWorkers(ctx, workers) // warms the state pools
			if err != nil {
				t.Fatal(err)
			}
			rows, width := len(res.Rows), len(res.Cols)
			unordered := *pp
			unordered.orderPos = -1
			concat, err := unordered.ExecuteContextWorkers(ctx, workers)
			if err != nil {
				t.Fatal(err)
			}
			if rows < morselRows || pp.orderPos < 0 || multiRun[pi] == sort.SliceIsSorted(concat.Rows, func(i, j int) bool {
				return concat.Rows[i][pp.orderPos].Compare(concat.Rows[j][pp.orderPos]) < 0
			}) {
				t.Fatalf("plan %d (%s): %d rows, order position %d: not the sorted union this case wants (several runs: %v)",
					pi, queries[pi], rows, pp.orderPos, multiRun[pi])
			}
			const runs = 5
			got := func() float64 {
				defer debug.SetGCPercent(debug.SetGCPercent(-1))
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for i := 0; i < runs; i++ {
					if _, err := pp.ExecuteContextWorkers(ctx, workers); err != nil {
						t.Fatal(err)
					}
				}
				runtime.ReadMemStats(&after)
				return float64(after.TotalAlloc-before.TotalAlloc) / runs
			}()
			bound := 1.15 * float64(rows) * float64(24+40*width)
			t.Logf("plan %d workers %d: %d rows x %d cols, %.0f bytes per execution (bound %.0f)", pi, workers, rows, width, got, bound)
			if got > bound && !raceEnabled {
				t.Errorf("plan %d workers %d: %.0f bytes per execution, more than 1.15 x %d rows x (24 + 40 x %d) = %.0f",
					pi, workers, got, rows, width, bound)
			}
		}
	}
}

// assembleSlots builds the slots an execution of n keyed rows leaves:
// batches of batchSize rows, four to a slot, each with its key block.
// Row i's key is i modulo n/runs, so the rows arrive as runs sorted runs
// of n/runs rows each, every run starting below where the last ended.
// Each row is three values wide — its key, a string and its number — and
// on the byte target (encode) a rowBlock of its text instead.
func assembleSlots(n, runs int, encode bool) []outSlot {
	const width, perSlot = 3, 4 * batchSize
	slots := make([]outSlot, (n+perSlot-1)/perSlot)
	for i := 0; i < n; i += batchSize {
		s := &slots[i/perSlot]
		m := min(batchSize, n-i)
		s.width, s.rows = width, s.rows+m
		kb, rb, arena := new(keyBlock), new(rowBlock), make([]rel.Value, m*width)
		for r := 0; r < m; r++ {
			k := int64((i + r) % (n / runs))
			kb[r] = k
			arena[r*width], arena[r*width+1], arena[r*width+2] = rel.Int(k), rel.Str("title"), rel.Int(int64(i+r))
			rb.buf = strconv.AppendInt(append(strconv.AppendInt(append(rb.buf, '['), k, 10), `,"title",`...), int64(i+r), 10)
			rb.buf = append(rb.buf, ']')
			rb.ends[r] = int32(len(rb.buf))
		}
		rb.n = m
		s.keys = append(s.keys, kb)
		if encode {
			s.blocks = append(s.blocks, rb)
		} else {
			s.arenas = append(s.arenas, arena)
		}
	}
	return slots
}

// assembledRows and assembledBytes keep BenchmarkAssemble's results.
var (
	assembledRows  [][]rel.Value
	assembledBytes []byte
)

// BenchmarkAssemble times the ORDER BY half of assembling an execution
// of 16 384 keyed rows on both targets — assemble's row headers and
// assembleBytes' encoded rows — when they arrive as one sorted run (the
// cut in plan order), two (a two-branch union: the merge) and n/2 (a
// seek-shaped union, the merge's worst case).
func BenchmarkAssemble(b *testing.B) {
	const n = 16 * batchSize
	for _, runs := range []int{1, 2, n / 2} {
		b.Run("runs="+strconv.Itoa(runs)+"/value", func(b *testing.B) {
			slots := assembleSlots(n, runs, false)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				assembledRows = assemble(slots, 0)
			}
		})
		b.Run("runs="+strconv.Itoa(runs)+"/bytes", func(b *testing.B) {
			slots := assembleSlots(n, runs, true)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				assembledBytes = assembleBytes(assembledBytes[:0], slots, 0)
			}
		})
	}
}
