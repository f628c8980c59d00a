package physdesign

import (
	"fmt"
	"sort"
	"strconv"
	"testing"

	"repro/internal/physical"
	"repro/internal/rel"
	"repro/internal/sqlast"
	"repro/internal/stats"
)

// refGenerateCandidates is generateCandidates as it stood before it
// checked a structure's ID ahead of building it: every branch's
// candidates are built in full — name, structure, size, candidate — and
// only then deduplicated by ID.
func refGenerateCandidates(w Workload, prov stats.Provider, opts Options) []*candidate {
	seen := make(map[string]*candidate)
	var out []*candidate
	qi := 0
	add := func(c *candidate) {
		switch {
		case c.idx != nil:
			c.id = c.idx.ID()
		case c.view != nil:
			c.id = c.view.ID()
		default:
			c.id = c.vpart.ID()
		}
		if prev, ok := seen[c.id]; ok {
			last := len(prev.origins) - 1
			if last < 0 || prev.origins[last] != qi {
				prev.origins = append(prev.origins, qi)
			}
			return
		}
		c.origins = []int{qi}
		c.added = &physical.Config{}
		c.addTo(c.added)
		seen[c.id] = c
		out = append(out, c)
	}
	seq := 0
	name := func(prefix string) string {
		seq++
		return prefix + "_" + strconv.Itoa(seq)
	}
	for i, wq := range w {
		qi = i
		for _, s := range wq.Q.Branches {
			for _, c := range refBranchCandidates(s, prov, opts, name) {
				add(c)
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// refBranchCandidates builds every candidate of one branch.
func refBranchCandidates(s *sqlast.Select, prov stats.Provider, opts Options, name func(string) string) []*candidate {
	var out []*candidate
	mkIndex := func(table string, key []string, include []string) {
		ts := prov.TableStats(table)
		if ts == nil {
			return
		}
		idx := &physical.Index{Name: name("ix_" + table), Table: table, Key: key, Include: dedupe(include, key)}
		out = append(out, &candidate{idx: idx, tables: []string{table}, bytes: idx.EstBytes(ts)})
	}
	for _, p := range s.Where {
		if p.Kind != sqlast.PredCompare || p.Op == sqlast.OpNe {
			continue
		}
		t := p.Col.Table
		mkIndex(t, []string{p.Col.Column}, nil)
		mkIndex(t, []string{p.Col.Column}, s.ColumnsOf(t))
	}
	for _, p := range s.Where {
		switch p.Kind {
		case sqlast.PredJoin:
			for _, side := range []sqlast.ColRef{p.Left, p.Right} {
				if side.Column == rel.PIDColumn {
					mkIndex(side.Table, []string{rel.PIDColumn}, nil)
					mkIndex(side.Table, []string{rel.PIDColumn}, s.ColumnsOf(side.Table))
				}
				if side.Column == rel.IDColumn {
					mkIndex(side.Table, []string{rel.IDColumn}, nil)
				}
			}
		case sqlast.PredExists, sqlast.PredOrExists:
			mkIndex(p.Table, []string{p.JoinCol}, []string{p.InnerCol})
		}
	}
	if !opts.DisableViews && len(s.From) == 2 {
		if v := refJoinViewCandidate(s, name); v != nil {
			out = append(out, &candidate{view: v, tables: []string{v.Outer, v.Inner}, bytes: v.EstBytes(prov)})
		}
	}
	if opts.EnableVPartitions {
		for _, t := range s.From {
			ts := prov.TableStats(t)
			if ts == nil {
				continue
			}
			refd := dedupe(s.ColumnsOf(t), []string{rel.IDColumn, rel.PIDColumn})
			var rest []string
			for c := range ts.Cols {
				if c == rel.IDColumn || c == rel.PIDColumn || containsStr(refd, c) {
					continue
				}
				rest = append(rest, c)
			}
			sort.Strings(rest)
			if len(refd) == 0 || len(rest) == 0 {
				continue
			}
			vp := &physical.VPartition{Table: t, Groups: [][]string{refd, rest}}
			out = append(out, &candidate{vpart: vp, tables: []string{t}, bytes: vp.EstBytes(ts) - ts.Bytes()})
		}
	}
	return out
}

// refJoinViewCandidate builds a parent-child join view matching the
// branch, or nil.
func refJoinViewCandidate(s *sqlast.Select, name func(string) string) *physical.View {
	for _, p := range s.Where {
		if p.Kind != sqlast.PredJoin {
			continue
		}
		l, r := p.Left, p.Right
		if l.Column == rel.IDColumn && r.Column == rel.PIDColumn {
			l, r = r, l
		}
		if l.Column != rel.PIDColumn || r.Column != rel.IDColumn {
			continue
		}
		inner, outer := l.Table, r.Table
		oc := s.ColumnsOf(outer)
		ic := s.ColumnsOf(inner)
		if !containsStr(oc, rel.IDColumn) {
			oc = append(oc, rel.IDColumn)
		}
		sort.Strings(oc)
		sort.Strings(ic)
		return &physical.View{Name: name("v_" + outer), Outer: outer, Inner: inner, OuterCols: oc, InnerCols: ic}
	}
	return nil
}

// describe renders everything a candidate carries that Tune reads: its
// ID and its structure's own, the structure field by field (name
// included), its tables, bytes, origins and added configuration.
func describe(c *candidate) string {
	var id, st string
	switch {
	case c.idx != nil:
		id, st = c.idx.ID(), fmt.Sprintf("%+v", *c.idx)
	case c.view != nil:
		id, st = c.view.ID(), fmt.Sprintf("%+v", *c.view)
	default:
		id, st = c.vpart.ID(), fmt.Sprintf("%+v", *c.vpart)
	}
	return fmt.Sprintf("id %s (structure's %s) %s tables %v bytes %d origins %v added %s",
		c.id, id, st, c.tables, c.bytes, c.origins, c.added)
}

// TestCandidatesMatchBuildThenDedupe: generateCandidates proposes the
// candidates the build-then-dedupe generator does — IDs, names (a
// duplicate still advances the numbering), structures, tables, origins,
// bytes and order — over the pinned fixture and the DBLP and Movie
// workloads of TestTuneMatchesFullReplanning, with views on and off and
// with partitions. Tune's oracle tuneFull shares generateCandidates, so
// TestTuneMatchesFullReplanning cannot catch a mistake here.
func TestCandidatesMatchBuildThenDedupe(t *testing.T) {
	fx := newPinnedFixture(t)
	dws, dprovs := dblpWorkloads(t)
	mw, mprov, _ := movieWorkload(t)
	ws := append(dws, mw)
	provs := []stats.Provider{dprovs[0], dprovs[1], mprov}
	for _, w := range fx.ws {
		ws, provs = append(ws, w), append(provs, fx.prov)
	}
	total := 0
	for wi, w := range ws {
		for _, opts := range []Options{{}, {DisableViews: true}, {EnableVPartitions: true}} {
			label := fmt.Sprintf("workload %d options %+v", wi, opts)
			got := generateCandidates(w, provs[wi], opts)
			want := refGenerateCandidates(w, provs[wi], opts)
			if len(got) != len(want) {
				t.Fatalf("%s: %d candidates, want %d", label, len(got), len(want))
			}
			for i := range want {
				if g, w := describe(got[i]), describe(want[i]); g != w {
					t.Errorf("%s: candidate %d\n%s\nwant\n%s", label, i, g, w)
				}
			}
			total += len(got)
		}
	}
	t.Logf("%d candidates compared", total)
}
