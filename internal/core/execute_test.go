package core

import (
	"context"
	"errors"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/shred"
	"repro/internal/stats"
	"repro/internal/translate"
	"repro/internal/workload"
	"repro/internal/xpath"
)

// TestExecutionReps pins the weight-to-repetition scaling: ratios are
// preserved by scaling the smallest positive weight to at least one
// execution and rounding half-up, instead of the old int() truncation
// that turned {2.9, 0.5} into {2, 0} reps (then floored to {2, 1},
// a 2:1 workload instead of the intended ~6:1).
func TestExecutionReps(t *testing.T) {
	cases := []struct {
		name    string
		weights []float64
		want    []int
	}{
		{"uniform", []float64{1, 1, 1}, []int{1, 1, 1}},
		{"integral", []float64{1, 3}, []int{1, 3}},
		// 0.5 scales to 1; 2.9 scales to 5.8, rounds half-up to 6.
		{"fractional", []float64{2.9, 0.5}, []int{6, 1}},
		// 2.9 alone: min weight >= 1 so no scale-up; rounds to 3.
		{"round half up", []float64{2.9}, []int{3}},
		{"round down", []float64{1, 2.4}, []int{1, 2}},
		// 0.5 would scale 128 to 256; the cap rescales so the largest
		// runs maxExecReps times and the smallest keeps its floor of 1.
		{"capped", []float64{0.5, 128}, []int{1, maxExecReps}},
		// Non-positive weights still execute once (floor).
		{"zero weight", []float64{0, 2}, []int{1, 2}},
		{"empty", []float64{}, []int{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := executionReps(tc.weights)
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("executionReps(%v) = %v, want %v", tc.weights, got, tc.want)
			}
		})
	}
}

// TestMeasuredRunsOnBudgetedStore covers the substrate of MeasureExecution
// and CostAudit: both execute on a store saved to a temporary directory
// and reopened under a quarter of its data, so their scans fault chunks;
// their rows, access counters and structure size equal an engine.Build +
// ExecuteReference run over the same design; and the directory is gone
// after a success, a failing translation and a cancelled measurement,
// with no goroutine left behind.
func TestMeasuredRunsOnBudgetedStore(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	requireNoStore := func(when string) {
		t.Helper()
		if left, err := os.ReadDir(tmp); err != nil || len(left) != 0 {
			t.Fatalf("after %s: temp dir holds %v (%v)", when, left, err)
		}
	}
	goroutines := runtime.NumGoroutine()

	fx := movieFixture(t, movieTestQueries)
	reg := obs.NewRegistry()
	adv := New(fx.base, fx.col, fx.w, Options{MaxRounds: 2, Registry: reg})
	res, err := adv.Greedy()
	if err != nil {
		t.Fatal(err)
	}
	ex, err := adv.MeasureExecution(res, fx.docs...)
	if err != nil {
		t.Fatal(err)
	}
	requireNoStore("MeasureExecution")
	snap := reg.Snapshot()
	if _, paged := snap["storage.paged_built.ms"]; !paged || snap["storage.pager.faults"] == 0 {
		t.Error("MeasureExecution did not run on a PagedBuilt that faulted chunks")
	}
	if _, resident := snap["storage.built.ms"]; resident {
		t.Error("MeasureExecution assembled the store into a resident Built")
	}
	faults := reg.Counter("storage.pager.faults").Value()
	audit, err := adv.CostAudit(res, fx.docs...)
	if err != nil {
		t.Fatal(err)
	}
	requireNoStore("CostAudit")
	if reg.Counter("storage.pager.faults").Value() == faults {
		t.Error("CostAudit faulted no chunk; it did not run on the paged store")
	}

	// The oracle: the same design, resident, through the reference executor.
	db, err := shred.Shred(res.Mapping, fx.docs...)
	if err != nil {
		t.Fatal(err)
	}
	built, err := engine.Build(db, res.Config)
	if err != nil {
		t.Fatal(err)
	}
	if ex.StructBytes != built.StructBytes {
		t.Errorf("StructBytes %d, engine.Build has %d", ex.StructBytes, built.StructBytes)
	}
	opt := optimizer.New(stats.FromDatabase(db))
	weights := make([]float64, len(fx.w.Queries))
	for i, wq := range fx.w.Queries {
		weights[i] = wq.Weight
	}
	reps := executionReps(weights)
	var rows int64
	for i, wq := range fx.w.Queries {
		sql, err := translate.Translate(res.Mapping, wq.XPath)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := opt.PlanQuery(sql, res.Config)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := engine.ExecuteReference(built, plan)
		if err != nil {
			t.Fatal(err)
		}
		rows += int64(reps[i] * len(ref.Rows))
		q := audit.Queries[i]
		if q.Rows != int64(len(ref.Rows)) || q.RowsScanned != ref.Stats.RowsScanned || q.RowsSought != ref.Stats.RowsSought {
			t.Errorf("audit of %s: rows %d scanned %d sought %d, reference %d / %+v",
				wq.XPath, q.Rows, q.RowsScanned, q.RowsSought, len(ref.Rows), ref.Stats)
		}
	}
	if ex.Rows != rows {
		t.Errorf("Rows %d, reference %d", ex.Rows, rows)
	}

	// A query the mapping cannot translate fails after the store is made.
	bad := &workload.Workload{Name: "bad", Queries: append(slices.Clone(fx.w.Queries),
		workload.Query{XPath: xpath.MustParse(`//movie/no_such_element`), Weight: 1})}
	badAdv := New(fx.base, fx.col, bad, Options{})
	if _, err := badAdv.MeasureExecution(res, fx.docs...); err == nil || !strings.Contains(err.Error(), "translating") {
		t.Errorf("MeasureExecution of an untranslatable query: %v", err)
	}
	requireNoStore("a failing MeasureExecution")
	if _, err := badAdv.CostAudit(res, fx.docs...); err == nil || !strings.Contains(err.Error(), "translating") {
		t.Errorf("CostAudit of an untranslatable query: %v", err)
	}
	requireNoStore("a failing CostAudit")

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := adv.MeasureExecutionContext(ctx, res, fx.docs...); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled MeasureExecutionContext: %v", err)
	}
	requireNoStore("a cancelled MeasureExecutionContext")

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Errorf("%d goroutines after the measured runs, %d before", n, goroutines)
	}
}

// TestTimeRunsMedianIgnoresOutlier: one pass 100× slower than the rest
// moves a mean by ≈ 10× but must move neither the median timeRuns
// reports nor its interquartile range.
func TestTimeRunsMedianIgnoresOutlier(t *testing.T) {
	const pass, outlier = 2 * time.Millisecond, 200 * time.Millisecond
	runs := 0
	// A floor far above a pass: every run after the calibrating one is
	// timed, nine of them, even when a loaded box stretches a pass.
	median, spread, err := timeRuns(outlier, 9, func() error {
		runs++
		if runs == 4 {
			time.Sleep(outlier)
		} else {
			time.Sleep(pass)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if runs != 10 {
		t.Fatalf("%d runs, want the calibrating run and 9 timed ones", runs)
	}
	if median >= outlier/10 || spread >= outlier/10 {
		t.Errorf("median %s, IQR %s over %d runs of %s and one of %s: the outlier moved them", median, spread, runs, pass, outlier)
	}
}
