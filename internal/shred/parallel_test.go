package shred

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/rel"
	"repro/internal/schema"
	"repro/internal/xmlgen"
)

// workerCounts are the GOMAXPROCS values the worker tests run Shred at.
var workerCounts = []int{1, 2, 3, 8}

// atWorkers runs f with GOMAXPROCS set to each of workerCounts.
func atWorkers(t *testing.T, f func(k int)) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, k := range workerCounts {
		runtime.GOMAXPROCS(k)
		f(k)
	}
}

// findElem returns the first element in e's subtree, in document order,
// whose schema node is named name, with its parent (nil for e itself).
func findElem(e *xmlgen.Elem, name string) (found, parent *xmlgen.Elem) {
	if e.Node.Name == name {
		return e, nil
	}
	for _, c := range e.Children {
		if f, p := findElem(c, name); f != nil {
			if p == nil {
				p = e
			}
			return f, p
		}
	}
	return nil, nil
}

// waitGoroutines fails unless the goroutine count falls back to want
// within a second: a worker that has signalled its end may still be
// exiting when its caller returns.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > want; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the call, %d before", runtime.NumGoroutine(), want)
		}
	}
}

// TestShredMatchesReferenceAtEveryWorkerCount loads DBLP and Movie under
// hybrid inlining on one to eight workers, whatever GOMAXPROCS is, and
// requires tables bit-identical to the reference shredder's.
func TestShredMatchesReferenceAtEveryWorkerCount(t *testing.T) {
	for _, tc := range []struct {
		tree *schema.Tree
		doc  *xmlgen.Doc
	}{
		{schema.DBLP(), xmlgen.GenerateDBLP(schema.DBLP(), xmlgen.DBLPOptions{Inproceedings: 300, Books: 40, Seed: 3})},
		{schema.Movie(), xmlgen.GenerateMovie(schema.Movie(), xmlgen.MovieOptions{Movies: 200, Seed: 4})},
	} {
		m, err := Compile(tc.tree)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refShred(m, tc.doc)
		if err != nil {
			t.Fatal(err)
		}
		for k := 1; k <= 8; k++ {
			got, err := shredOn(m, []*xmlgen.Doc{tc.doc}, k)
			if err != nil {
				t.Fatalf("%s on %d workers: %v", tc.tree.Root.Name, k, err)
			}
			if d := diffDatabases(want, got); d != "" {
				t.Fatalf("%s on %d workers: %s", tc.tree.Root.Name, k, d)
			}
		}
	}
}

// TestShredErrorsFirstInDocumentOrder: a document whose first movie has
// an actor with no value (a NOT NULL violation in actor) and whose last
// movie has two years (a scalar-column violation in movie) fails with
// the actor error, the reference shredder's text, at every GOMAXPROCS,
// although on two workers the worker that owns movie fails alone with
// the year error.
func TestShredErrorsFirstInDocumentOrder(t *testing.T) {
	m, err := Compile(schema.Movie())
	if err != nil {
		t.Fatal(err)
	}
	doc := xmlgen.GenerateMovie(schema.Movie(), xmlgen.MovieOptions{Movies: 6, Seed: 9})
	movies := doc.Root.Children
	actor, _ := findElem(movies[0], "actor")
	year, parent := findElem(movies[len(movies)-1], "year")
	if actor == nil || year == nil {
		t.Fatal("fixture: first movie has no actor or last movie has no year")
	}
	actor.Value = rel.NullOf(rel.TString)
	parent.Children = append(parent.Children, &xmlgen.Elem{Node: year.Node, Value: year.Value})

	owner := owners(m, 2)
	movieOwner, actorOwner := -1, -1
	for i, r := range m.Relations {
		switch r.Name {
		case "movie":
			movieOwner = owner[i]
		case "actor":
			actorOwner = owner[i]
		}
	}
	if movieOwner != 0 || actorOwner != 1 {
		t.Fatalf("fixture: on two workers movie is owned by %d and actor by %d, want 0 and 1", movieOwner, actorOwner)
	}
	if _, err := shredOn(m, []*xmlgen.Doc{doc}, 2); err == nil || !strings.Contains(err.Error(), "scalar column movie.year") {
		t.Fatalf("fixture: two workers fail with %v, want the year error of the worker that owns movie", err)
	}

	const want = "missing value for NOT NULL column actor.actor"
	atWorkers(t, func(k int) {
		_, err := Shred(m, doc)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("GOMAXPROCS %d: Shred error %v, want one containing %q", k, err, want)
		}
		checkShredMatchesReference(t, fmt.Sprintf("GOMAXPROCS %d", k), m, doc)
	})
}

// TestShredRejectsDocumentsWithoutRoot: a nil document or one with no
// root is an error naming its index, not a panic.
func TestShredRejectsDocumentsWithoutRoot(t *testing.T) {
	m, err := Compile(schema.Movie())
	if err != nil {
		t.Fatal(err)
	}
	doc := xmlgen.GenerateMovie(schema.Movie(), xmlgen.MovieOptions{Movies: 3, Seed: 1})
	for _, tc := range []struct {
		docs []*xmlgen.Doc
		want string
	}{
		{[]*xmlgen.Doc{{}}, "shred: document 0 has no root"},
		{[]*xmlgen.Doc{doc, nil}, "shred: document 1 has no root"},
		{[]*xmlgen.Doc{doc, doc, {}}, "shred: document 2 has no root"},
	} {
		if db, err := Shred(m, tc.docs...); db != nil || err == nil || err.Error() != tc.want {
			t.Errorf("Shred = %v, %v; want error %q", db, err, tc.want)
		}
	}
}

// TestShredRaisesWorkerPanicOnCaller: a document element with no schema
// node makes every worker panic; Shred waits for all of them and panics
// again on the caller's goroutine, where it can be recovered.
func TestShredRaisesWorkerPanicOnCaller(t *testing.T) {
	m, err := Compile(schema.Movie())
	if err != nil {
		t.Fatal(err)
	}
	doc := xmlgen.GenerateMovie(schema.Movie(), xmlgen.MovieOptions{Movies: 3, Seed: 1})
	doc.Root.Children = append(doc.Root.Children, &xmlgen.Elem{})
	atWorkers(t, func(k int) {
		before := runtime.NumGoroutine()
		p := func() (p any) {
			defer func() { p = recover() }()
			Shred(m, doc)
			return nil
		}()
		if _, ok := p.(runtime.Error); !ok {
			t.Fatalf("GOMAXPROCS %d: Shred raised %v, want the workers' runtime error", k, p)
		}
		waitGoroutines(t, before)
	})
}
