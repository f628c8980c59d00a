package par

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestDoRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 8, 100} {
		var calls [37]atomic.Int32
		if err := Do(len(calls), workers, func(i int) error {
			calls[i].Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range calls {
			if n := calls[i].Load(); n != 1 {
				t.Fatalf("%d workers: index %d called %d times", workers, i, n)
			}
		}
	}
	if err := Do(0, 4, func(int) error { panic("called") }); err != nil {
		t.Fatal(err)
	}
}

// TestDoReportsLowestFailure: whichever call fails first in time, Do
// reports the failure of the lowest index, an error or a panic, and
// every index below it has run.
func TestDoReportsLowestFailure(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		var ran [20]atomic.Bool
		err := Do(len(ran), workers, func(i int) error {
			ran[i].Store(true)
			switch i {
			case 5:
				time.Sleep(5 * time.Millisecond) // fails after 9 has
				return fmt.Errorf("task %d", i)
			case 9:
				return fmt.Errorf("task %d", i)
			case 12:
				panic("task 12")
			}
			return nil
		})
		if err == nil || err.Error() != "task 5" {
			t.Fatalf("%d workers: Do = %v, want task 5's error", workers, err)
		}
		for i := 0; i < 5; i++ {
			if !ran[i].Load() {
				t.Fatalf("%d workers: index %d below the failure did not run", workers, i)
			}
		}

		p := func() (p any) {
			defer func() { p = recover() }()
			Do(len(ran), workers, func(i int) error {
				switch i {
				case 3:
					time.Sleep(5 * time.Millisecond)
					panic(errors.ErrUnsupported)
				case 4:
					return errors.New("task 4")
				}
				return nil
			})
			return nil
		}()
		if p != errors.ErrUnsupported {
			t.Fatalf("%d workers: Do raised %v, want task 3's panic value", workers, p)
		}
	}
}

// TestDoWaitsForEveryCall: Do returns after every call it started has
// returned, though one failed at once.
func TestDoWaitsForEveryCall(t *testing.T) {
	var running atomic.Int32
	before := runtime.NumGoroutine()
	err := Do(4, 4, func(i int) error {
		if i == 0 {
			return errors.New("task 0")
		}
		running.Add(1)
		time.Sleep(10 * time.Millisecond)
		running.Add(-1)
		return nil
	})
	if err == nil || running.Load() != 0 {
		t.Fatalf("Do = %v with %d calls still running", err, running.Load())
	}
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Do, %d before", runtime.NumGoroutine(), before)
		}
	}
}

// TestDoOneWorkerRunsOnCaller: with workers <= 1 Do starts no
// goroutine, so every call runs on the caller's.
func TestDoOneWorkerRunsOnCaller(t *testing.T) {
	for _, workers := range []int{-1, 0, 1} {
		before := runtime.NumGoroutine()
		if err := Do(5, workers, func(i int) error {
			if n := runtime.NumGoroutine(); n != before {
				return fmt.Errorf("call %d: %d goroutines, %d before Do", i, n, before)
			}
			return nil
		}); err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
	}
}

// TestOnlyParStartsWorkers keeps Do the module's one worker pool: no
// product file of the module has a go statement outside Do and three
// background goroutines that are not worker pools — the store's
// asynchronous compaction and the two HTTP listeners.
func TestOnlyParStartsWorkers(t *testing.T) {
	allowed := map[string]bool{
		"internal/par/par.go Do":                      false,
		"internal/storage/store.go maybeCompactAsync": false,
		"internal/obs/debug.go ServeDebug":            false,
		"internal/service/http.go Serve":              false,
	}
	root := filepath.Join("..", "..")
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not found: %v", err)
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			// Skip hidden and testdata directories and nested modules.
			if strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				g, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				site := filepath.ToSlash(rel) + " " + fn.Name.Name
				if _, ok := allowed[site]; !ok {
					t.Errorf("%s: go statement in %s: run the tasks on par.Do", fset.Position(g.Pos()), fn.Name.Name)
				}
				allowed[site] = true
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for site, seen := range allowed {
		if !seen {
			t.Errorf("no go statement in %s: the allowed list is stale, or the walk missed it", site)
		}
	}
}
