package core

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/schema"
	"repro/internal/shred"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/internal/xmlgen"
)

// memoFixtures are the four workload classes, five queries each, on
// DBLP (the pinned searches' fixtures) and on Movie.
func memoFixtures(t *testing.T) []*fixture {
	t.Helper()
	out := pinnedFixtures(t, 5)
	base := schema.Movie()
	opts := xmlgen.DefaultMovieOptions()
	opts.Movies /= 4
	opts.Seed = 1
	col := xmlgen.CollectStats(base, xmlgen.GenerateMovie(base, opts))
	for _, p := range workload.StandardParams(5, 7) {
		w, err := workload.Generate(base, col, p)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, &fixture{base: base, col: col, w: w})
	}
	return out
}

// checkMemoAnswers compares what the shred memo answered for a tree with
// a fresh Compile and DeriveStats of it, and returns the first
// difference ("" when none).
func checkMemoAnswers(ev *evalResult, col *stats.Collection) string {
	fresh, err := shred.Compile(ev.tree)
	if err != nil {
		return fmt.Sprintf("fresh compile fails (%v) where the memo compiled", err)
	}
	m := ev.mapping
	if m.Tree != ev.tree {
		return "mapping is not of the tree"
	}
	if len(m.Relations) != len(fresh.Relations) {
		return fmt.Sprintf("%d relations, fresh %d", len(m.Relations), len(fresh.Relations))
	}
	for i, r := range m.Relations {
		f := fresh.Relations[i]
		switch {
		case r.Name != f.Name || r.Ann != f.Ann:
			return fmt.Sprintf("relation %d is %s (%s), fresh %s (%s)", i, r.Name, r.Ann, f.Name, f.Ann)
		case !slices.Equal(r.ParentAnns, f.ParentAnns):
			return fmt.Sprintf("relation %s parents %v, fresh %v", r.Name, r.ParentAnns, f.ParentAnns)
		case !reflect.DeepEqual(r.Columns, f.Columns):
			return fmt.Sprintf("relation %s columns %v, fresh %v", r.Name, r.Columns, f.Columns)
		case !reflect.DeepEqual(r.Part, f.Part):
			return fmt.Sprintf("relation %s partition %+v, fresh %+v", r.Name, r.Part, f.Part)
		case m.Relation(r.Name) != r:
			return fmt.Sprintf("relation %s is not the mapping's by name", r.Name)
		}
		if len(r.Anchors) != len(f.Anchors) {
			return fmt.Sprintf("relation %s has %d anchors, fresh %d", r.Name, len(r.Anchors), len(f.Anchors))
		}
		for j, a := range r.Anchors {
			// Re-bound to this tree's nodes, never another clone's.
			if a != ev.tree.Node(f.Anchors[j].ID) {
				return fmt.Sprintf("relation %s anchor %d is not node %d of the tree", r.Name, j, f.Anchors[j].ID)
			}
		}
		for ci := range r.Columns {
			if !slices.Equal(r.LeafIDsFor(ci), f.LeafIDsFor(ci)) {
				return fmt.Sprintf("relation %s column %d holds leaves %v, fresh %v", r.Name, ci, r.LeafIDsFor(ci), f.LeafIDsFor(ci))
			}
		}
		if r.Part != nil {
			for _, c := range r.Part.Conds {
				if aliasesTree(c.Dist.Optionals, ev.tree) {
					return fmt.Sprintf("relation %s partition shares the tree's distribution", r.Name)
				}
			}
		}
	}
	var diff string
	ev.tree.Walk(func(n *schema.Node) {
		if diff != "" || n.Kind != schema.KindElement {
			return
		}
		hs, fs := m.Homes(n.ID), fresh.Homes(n.ID)
		if len(hs) != len(fs) {
			diff = fmt.Sprintf("leaf %d has %d homes, fresh %d", n.ID, len(hs), len(fs))
			return
		}
		for i, h := range hs {
			f := fs[i]
			if h.Rel != m.Relation(f.Rel.Name) || h.Column != f.Column || h.Occurrence != f.Occurrence || h.Overflow != f.Overflow {
				diff = fmt.Sprintf("leaf %d home %d is %s.%s, fresh %s.%s", n.ID, i, h.Rel.Name, h.Column, f.Rel.Name, f.Column)
				return
			}
		}
	})
	if diff != "" {
		return diff
	}
	if fp := shred.DeriveStats(fresh, col); !reflect.DeepEqual(ev.prov, fp) {
		for name, ts := range fp {
			if !reflect.DeepEqual(ev.prov[name], ts) {
				return fmt.Sprintf("statistics of %s: %+v, fresh %+v", name, ev.prov[name], ts)
			}
		}
		return fmt.Sprintf("statistics name %d tables, fresh %d", len(ev.prov), len(fp))
	}
	return ""
}

// aliasesTree reports whether ids shares its array with a distribution
// of the tree.
func aliasesTree(ids []int, t *schema.Tree) bool {
	if len(ids) == 0 {
		return false
	}
	aliased := false
	t.Walk(func(n *schema.Node) {
		for _, d := range n.Distributions {
			if len(d.Optionals) > 0 && &d.Optionals[0] == &ids[0] {
				aliased = true
			}
		}
	})
	return aliased
}

// TestMemoMatchesFreshPreparation: every compiled relation and derived
// statistic the search's shred memo hands a candidate equals what a
// fresh Compile and DeriveStats of the candidate's tree give, for every
// tree Greedy, Two-Step and a quick Naive-Greedy prepare on DBLP and
// Movie in all four workload classes.
func TestMemoMatchesFreshPreparation(t *testing.T) {
	for _, fx := range memoFixtures(t) {
		for _, alg := range []string{"greedy", "two-step", "naive"} {
			name := fx.w.Name + "/" + alg + "/" + fx.base.Root.Name
			opts := Options{Parallelism: runtime.GOMAXPROCS(0)}
			if alg == "naive" {
				opts.MaxRounds = 1
			}
			adv := New(fx.base, fx.col, fx.w, opts)
			var mu sync.Mutex
			var checked int
			var diffs []string
			adv.observe = func(ev *evalResult) {
				d := checkMemoAnswers(ev, fx.col)
				mu.Lock()
				defer mu.Unlock()
				checked++
				if d != "" {
					diffs = append(diffs, d)
				}
			}
			var err error
			switch alg {
			case "greedy":
				_, err = adv.Greedy()
			case "two-step":
				_, err = adv.TwoStep()
			default:
				_, err = adv.NaiveGreedy()
			}
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if checked == 0 {
				t.Fatalf("%s: no mapping prepared", name)
			}
			for _, d := range diffs[:min(len(diffs), 3)] {
				t.Errorf("%s: %s", name, d)
			}
			if len(diffs) > 0 {
				t.Fatalf("%s: %d of %d prepared mappings differ from a fresh preparation", name, len(diffs), checked)
			}
		}
	}
}

// TestMemoEntriesAreReadOnly: round workers share the shred memo's
// statistics and relation templates. Every shared entry a Two-Step
// search leaves in the memo is dumped deeply, a Greedy search on the
// same advisor reuses them on GOMAXPROCS workers, and the dumps must not
// change (run with -race to also catch a write racing a read).
func TestMemoEntriesAreReadOnly(t *testing.T) {
	fx := pinnedFixtures(t, 5)[1] // LP-LS: 806 shared entries, quick under -race
	for _, procs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			adv := New(fx.base, fx.col, fx.w, Options{Parallelism: procs})
			// shared dumps each entry, keyed by its identity: the
			// statistics, and a relation's columns, partition and parents.
			var mu sync.Mutex
			shared := map[any]func() string{}
			adv.observe = func(ev *evalResult) {
				mu.Lock()
				defer mu.Unlock()
				for _, ts := range ev.prov {
					shared[ts] = func() string { return deepDump(ts) }
				}
				for _, r := range ev.mapping.Relations {
					shared[&r.Columns[0]] = func() string { return deepDump(r.Columns) + deepDump(r.Part) + deepDump(r.ParentAnns) }
				}
			}
			if _, err := adv.TwoStep(); err != nil {
				t.Fatal(err)
			}
			adv.observe = nil
			before := make(map[any]string, len(shared))
			for e, dump := range shared {
				before[e] = dump()
			}
			if _, err := adv.Greedy(); err != nil {
				t.Fatal(err)
			}
			changed := 0
			for e, d := range before {
				if after := shared[e](); after != d {
					if changed++; changed <= 3 {
						t.Errorf("shared %T changed during the search:\n before %s\n after  %s", e, d, after)
					}
				}
			}
			if changed > 0 {
				t.Fatalf("%d of %d shared memo entries changed", changed, len(before))
			}
			t.Logf("%d shared memo entries unchanged", len(before))
		})
	}
}

// deepDump renders a value and everything it reaches, unexported fields
// included; map entries are sorted, and a schema node is its ID.
func deepDump(v any) string {
	var b strings.Builder
	dumpValue(&b, reflect.ValueOf(v), 0)
	return b.String()
}

func dumpValue(b *strings.Builder, v reflect.Value, depth int) {
	if depth > 20 {
		b.WriteString("…")
		return
	}
	switch v.Kind() {
	case reflect.Invalid:
		b.WriteString("<nil>")
	case reflect.Pointer:
		if v.IsNil() {
			b.WriteString("nil")
			return
		}
		if v.Type() == reflect.TypeFor[*schema.Node]() {
			fmt.Fprintf(b, "node#%d", v.Elem().FieldByName("ID").Int())
			return
		}
		b.WriteByte('&')
		dumpValue(b, v.Elem(), depth+1)
	case reflect.Interface:
		dumpValue(b, v.Elem(), depth+1)
	case reflect.Struct:
		b.WriteString(v.Type().Name() + "{")
		for i := range v.NumField() {
			fmt.Fprintf(b, "%s:", v.Type().Field(i).Name)
			dumpValue(b, v.Field(i), depth+1)
			b.WriteByte(' ')
		}
		b.WriteByte('}')
	case reflect.Slice, reflect.Array:
		b.WriteByte('[')
		for i := range v.Len() {
			dumpValue(b, v.Index(i), depth+1)
			b.WriteByte(',')
		}
		b.WriteByte(']')
	case reflect.Map:
		keys := make([]string, 0, v.Len())
		entries := map[string]string{}
		it := v.MapRange()
		for it.Next() {
			var kb, vb strings.Builder
			dumpValue(&kb, it.Key(), depth+1)
			dumpValue(&vb, it.Value(), depth+1)
			keys = append(keys, kb.String())
			entries[kb.String()] = vb.String()
		}
		sort.Strings(keys)
		b.WriteString("map[")
		for _, k := range keys {
			fmt.Fprintf(b, "%s:%s,", k, entries[k])
		}
		b.WriteByte(']')
	case reflect.String:
		fmt.Fprintf(b, "%q", v.String())
	case reflect.Bool:
		fmt.Fprint(b, v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		fmt.Fprint(b, v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		fmt.Fprint(b, v.Uint())
	case reflect.Float32, reflect.Float64:
		fmt.Fprint(b, v.Float())
	default:
		fmt.Fprintf(b, "<%s>", v.Kind())
	}
}
