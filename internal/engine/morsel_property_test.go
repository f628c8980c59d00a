package engine

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/obs"
	"repro/internal/physical"
	"repro/internal/rel"
	"repro/internal/schema"
	"repro/internal/xmlgen"
)

// TestMorselBoundaryProperties shrinks morselRows so that tiny fixtures
// exercise every boundary shape — empty tables, row counts below /
// equal to / one above the morsel size, multi-morsel tails, selection
// vectors straddling morsel edges (the genre/year predicates in
// movieQueries survive in some morsels and die in others), and
// partition groups smaller than one morsel — and asserts the morsel
// executor stays bit-identical to the reference at several worker
// counts.
func TestMorselBoundaryProperties(t *testing.T) {
	saved := morselRows
	morselRows = 8
	defer func() { morselRows = saved }()

	configs := map[string]func() *physical.Config{
		"heap": func() *physical.Config { return nil },
		"partition": func() *physical.Config {
			cfg := &physical.Config{}
			cfg.AddPartition(&physical.VPartition{Table: "movie", Groups: [][]string{
				{"title", "year", "box_office", "seasons"},
				{"avg_rating", "genre", "country", "language", "runtime"},
			}})
			return cfg
		},
		"index": func() *physical.Config {
			cfg := &physical.Config{}
			cfg.AddIndex(&physical.Index{Name: "ix_movie_year", Table: "movie", Key: []string{"year"},
				Include: []string{"ID", "title", "box_office"}})
			return cfg
		},
	}

	// Row counts around the shrunk morsel size: empty, below, exactly
	// one morsel, one above, two morsels ± one, and a ragged tail.
	for _, movies := range []int{0, 1, 7, 8, 9, 15, 16, 17, 31} {
		doc := xmlgen.GenerateMovie(schema.Movie(), xmlgen.MovieOptions{Movies: movies, Seed: int64(100 + movies)})
		for cfgName, mkCfg := range configs {
			name := fmt.Sprintf("%s/movies=%d", cfgName, movies)
			t.Run(name, func(t *testing.T) {
				built, plans := buildPlans(t, schema.Movie(), doc, movieQueries, mkCfg())
				for pi, plan := range plans {
					want, err := ExecuteReference(built, plan)
					if err != nil {
						t.Fatalf("plan %d: reference: %v", pi, err)
					}
					pp, err := built.Prepared(plan)
					if err != nil {
						t.Fatalf("plan %d: prepare: %v", pi, err)
					}
					for _, wk := range []int{1, 2, 3, 5} {
						got, err := pp.ExecuteContextWorkers(context.Background(), wk)
						if err != nil {
							t.Fatalf("plan %d workers %d: %v", pi, wk, err)
						}
						requireIdentical(t, name, got, want)
					}
				}
			})
		}
	}
}

// fixedStride is the morsel split every driver used before chunk spans
// drove it: [0,n) cut every morselRows rows.
func fixedStride(n int) [][2]int {
	var out [][2]int
	for lo := 0; lo < n; lo += morselRows {
		out = append(out, [2]int{lo, min(lo+morselRows, n)})
	}
	return out
}

// TestMorselRangesOneChunkIsFixedStride pins the resident-table case of
// the single morsel rule: a one-chunk source of n rows splits on exactly
// the fixed morselRows stride, so a resident Built dispatches the same
// morsels — and counts the same engine.exec.morsels — as before the
// scan drivers merged.
func TestMorselRangesOneChunkIsFixedStride(t *testing.T) {
	for _, n := range []int{0, 1, morselRows - 1, morselRows, morselRows + 1,
		2 * morselRows, 3*morselRows + 17, 135764} {
		got := morselRanges(1, func(int) (int, int) { return 0, n })
		if fmt.Sprint(got) != fmt.Sprint(fixedStride(n)) {
			t.Errorf("n=%d: one-chunk ranges %v, fixed stride %v", n, got, fixedStride(n))
		}
	}
}

// TestResidentMorselCounterIsFixedStride pins the same fact end to end:
// over a resident Built every branch — scan, seek, or partition zip —
// dispatches one morsel per fixed-stride range of its driver rows, so
// the engine.exec.morsels delta per query is unchanged from before the
// scan drivers merged, and the same at every worker count — one
// goroutine claims the morsels seven would.
func TestResidentMorselCounterIsFixedStride(t *testing.T) {
	defer func(old int) { morselRows = old }(morselRows)
	morselRows = 8

	doc := xmlgen.GenerateMovie(schema.Movie(), xmlgen.MovieOptions{Movies: 31, Seed: 131})
	cfg := &physical.Config{}
	cfg.AddIndex(&physical.Index{Name: "ix_movie_year", Table: "movie", Key: []string{"year"},
		Include: []string{"ID", "title", "box_office"}})
	built, plans := buildPlans(t, schema.Movie(), doc, movieQueries, cfg)
	reg := obs.NewRegistry()
	built.AttachObs(nil, reg)
	morsels := reg.Counter("engine.exec.morsels")
	for pi, plan := range plans {
		pp, err := built.Prepared(plan)
		if err != nil {
			t.Fatalf("plan %d: prepare: %v", pi, err)
		}
		var want int64
		for _, pb := range pp.branches {
			n, _ := pb.resolveDriver(&ExecStats{})
			want += int64(len(fixedStride(n)))
		}
		for _, wk := range []int{1, 2, 7} {
			before := morsels.Value()
			if _, err := pp.ExecuteContextWorkers(context.Background(), wk); err != nil {
				t.Fatalf("plan %d workers %d: %v", pi, wk, err)
			}
			if got := morsels.Value() - before; got != want {
				t.Errorf("plan %d workers %d: %d morsels, fixed stride gives %d", pi, wk, got, want)
			}
		}
	}
}

// TestMorselRangesSpanLayouts checks the morsel rule over seeded random
// chunk layouts — one chunk larger than morselRows, many 64-row chunks,
// pager-sized chunks, mixed sizes, each optionally followed by a short
// redo-overlay chunk: the ranges tile [0,n) exactly, no chunk that fits
// a morsel is split across two, and a layout with no oversized chunk
// gets exactly the ranges the chunk-aligned rule gave paged scans
// before the drivers merged (whole chunks until morselRows is reached).
func TestMorselRangesSpanLayouts(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	layouts := map[string]func() []int{
		"one-big": func() []int { return []int{morselRows + 1 + rng.Intn(4*morselRows)} },
		"many-64": func() []int { return repeat(64, 1+rng.Intn(300)) },
		"pager":   func() []int { return repeat(morselRows, 1+rng.Intn(8)) },
		"mixed": func() []int {
			sizes := make([]int, 1+rng.Intn(40))
			for i := range sizes {
				sizes[i] = 1 + rng.Intn(3*morselRows)
			}
			return sizes
		},
	}
	for name, mk := range layouts {
		for trial := 0; trial < 50; trial++ {
			sizes := mk()
			if trial%2 == 1 {
				sizes = append(sizes, 1+rng.Intn(63)) // trailing short overlay chunk
			}
			spans := make([][2]int, len(sizes))
			n := 0
			for i, sz := range sizes {
				spans[i] = [2]int{n, n + sz}
				n += sz
			}
			ranges := morselRanges(len(spans), func(k int) (int, int) { return spans[k][0], spans[k][1] })
			at := 0
			for _, r := range ranges {
				if r[0] != at || r[1] <= r[0] {
					t.Fatalf("%s %v: ranges %v do not tile [0,%d)", name, sizes, ranges, n)
				}
				at = r[1]
			}
			if at != n {
				t.Fatalf("%s %v: ranges %v end at %d, want %d", name, sizes, ranges, at, n)
			}
			var wholeChunks [][2]int // the pre-merge chunk-aligned rule
			oversized := false
			for lo, k := 0, 0; k < len(spans); {
				hi := lo
				for k < len(spans) && hi-lo < morselRows {
					hi = spans[k][1]
					k++
				}
				wholeChunks = append(wholeChunks, [2]int{lo, hi})
				lo = hi
			}
			for _, sp := range spans {
				if sp[1]-sp[0] > morselRows {
					oversized = true
					continue
				}
				covering := 0
				for _, r := range ranges {
					if r[0] < sp[1] && sp[0] < r[1] {
						covering++
					}
				}
				if covering != 1 {
					t.Fatalf("%s %v: chunk %v is split across %d morsels in %v", name, sizes, sp, covering, ranges)
				}
			}
			if !oversized && fmt.Sprint(ranges) != fmt.Sprint(wholeChunks) {
				t.Fatalf("%s %v: ranges %v, chunk-aligned rule gave %v", name, sizes, ranges, wholeChunks)
			}
		}
	}
}

// TestClaimOrderIsMorselMajor pins the one claim rule over seeded random
// branch shapes (empty branches included): the order is a permutation of
// the branch-major task list, and read as (morsel, branch) pairs it is
// strictly increasing — morsel 0 of every branch, then morsel 1, …. The
// rule has no worker-count input; the end-to-end half shows it at one
// worker, where the chunk acquisitions of a two-branch scan of one table
// come in claim order: both branches take chunk 0, then both take chunk 1.
func TestClaimOrderIsMorselMajor(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 200; trial++ {
		counts := make([]int, rng.Intn(6))
		var branchOf, morselOf []int // of each task, branch-major
		for b := range counts {
			counts[b] = rng.Intn(5)
			for m := 0; m < counts[b]; m++ {
				branchOf, morselOf = append(branchOf, b), append(morselOf, m)
			}
		}
		order := claimOrder(counts)
		if len(order) != len(branchOf) {
			t.Fatalf("counts %v: order %v has %d entries, want %d", counts, order, len(order), len(branchOf))
		}
		seen := make([]bool, len(order))
		for c, i := range order {
			if i < 0 || i >= len(seen) || seen[i] {
				t.Fatalf("counts %v: order %v is not a permutation", counts, order)
			}
			seen[i] = true
			if c == 0 {
				continue
			}
			p := order[c-1]
			if morselOf[p] > morselOf[i] || (morselOf[p] == morselOf[i] && branchOf[p] >= branchOf[i]) {
				t.Fatalf("counts %v: order %v is not morsel-major at position %d", counts, order, c)
			}
		}
	}

	defer func(old int) { morselRows = old }(morselRows)
	morselRows = 128 // one 128-row chunk per morsel
	db := chunkDB(640)
	built, err := Build(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	src := &orderedSource{ScanSource: newSliceSource(t, db.Table("big"), 128)}
	built.SetScanSource("big", src)
	pp, err := built.Prepared(planQuery(t, db, chunkQueries()[0]))
	if err != nil {
		t.Fatal(err)
	}
	if len(pp.branches) != 2 {
		t.Fatalf("fixture has %d branches, want the two-branch union", len(pp.branches))
	}
	if _, err := pp.ExecuteContextWorkers(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(src.acquired), "[0 0 1 1 2 2 3 3 4 4]"; got != want {
		t.Fatalf("one worker acquired chunks %s, want %s", got, want)
	}
}

// orderedSource records the order chunks are acquired in. Not safe for
// concurrent executions: it is for one worker.
type orderedSource struct {
	ScanSource
	acquired []int
}

func (s *orderedSource) ChunkColumns(k int, cols []int) (*rel.Table, func(), error) {
	s.acquired = append(s.acquired, k)
	return s.ScanSource.ChunkColumns(k, cols)
}

func repeat(v, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = v
	}
	return out
}
