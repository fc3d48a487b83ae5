package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"

	"sqlsheet/internal/types"
	"sqlsheet/internal/wire"
)

// nf is a nullable float: the benchmark's plain-Go value for one measure.
type nf struct {
	v  float64
	ok bool
}

func some(v float64) nf { return nf{v, true} }

func div(a, b nf) nf {
	if !a.ok || !b.ok {
		return nf{}
	}
	return some(a.v / b.v)
}

// expected is a query answer computed by the benchmark itself: rows keyed
// by their leading nkey columns, each holding the remaining columns.
type expected struct {
	nkey int
	rows map[string][]nf
}

func newExpected(nkey int) expected { return expected{nkey: nkey, rows: map[string][]nf{}} }

func rowKey(parts ...string) string { return strings.Join(parts, "\x00") }

// fcell is one fact that passed a query's filter.
type fcell struct {
	r, p string
	t    int
	s    float64
}

// store is the model a workload checks against: the sales cube plus the
// static hierarchy. Sessions write disjoint regions; the lock only keeps
// Go's maps safe across sessions.
type store struct {
	mu sync.RWMutex
	c  *cube
	h  hier
	// par maps a product name to its parent's name.
	par map[string]string
	lvl map[string]int
	// reports holds the acknowledged rows of the reports table.
	reports     map[int64]string
	reportBytes int64
}

func newStore(d *dataset) *store {
	st := &store{c: d.sales, h: d.h, par: map[string]string{}, lvl: map[string]int{}, reports: map[int64]string{}}
	for i, n := range d.h.names {
		st.par[n] = d.h.names[d.h.parent[i]]
		st.lvl[n] = d.h.level[i]
	}
	return st
}

// filter selects facts in the given regions and products (nil = all) with
// tlo <= t <= thi, plus an optional extra predicate.
func (st *store) filter(regions, prods []string, tlo, thi int, pred func(fcell) bool) []fcell {
	var out []fcell
	for _, r := range regions {
		ps := st.c.data[r]
		visit := func(p string, ts map[int]float64) {
			for t, s := range ts {
				if t < tlo || t > thi {
					continue
				}
				f := fcell{r, p, t, s}
				if pred == nil || pred(f) {
					out = append(out, f)
				}
			}
		}
		if prods == nil {
			for p, ts := range ps {
				visit(p, ts)
			}
			continue
		}
		for _, p := range prods {
			if ts, ok := ps[p]; ok {
				visit(p, ts)
			}
		}
	}
	return out
}

// byRP groups facts into PBY(r, p) DBY(t) partitions.
func byRP(cells []fcell) map[[2]string]map[int]float64 {
	parts := map[[2]string]map[int]float64{}
	for _, f := range cells {
		k := [2]string{f.r, f.p}
		if parts[k] == nil {
			parts[k] = map[int]float64{}
		}
		parts[k][f.t] = f.s
	}
	return parts
}

func lookup(m map[int]float64, t int) nf {
	v, ok := m[t]
	return nf{v, ok}
}

func rpKey(r, p string, t int) string { return rowKey(r, p, strconv.Itoa(t)) }

// lagRatio answers q[*] = s[cv(t)] / s[cv(t)-lag] over PBY(r, p) DBY(t),
// keeping rows with t >= from.
func lagRatio(cells []fcell, lag, from int) expected {
	e := newExpected(3)
	for k, m := range byRP(cells) {
		for t, s := range m {
			if t < from {
				continue
			}
			e.rows[rpKey(k[0], k[1], t)] = []nf{some(s), div(some(s), lookup(m, t-lag))}
		}
	}
	return e
}

// runningAgg answers x[*] = agg(s)[lo(t) <= t <= cv(t)] over PBY(r, p)
// DBY(t); window < 0 means unbounded below (a running total), otherwise
// the window covers cv(t)-window .. cv(t).
func runningAgg(cells []fcell, window int, avg bool) expected {
	e := newExpected(3)
	for k, m := range byRP(cells) {
		ts := make([]int, 0, len(m))
		for t := range m {
			ts = append(ts, t)
		}
		sort.Ints(ts)
		for i, t := range ts {
			sum, n := 0.0, 0
			for j := i; j >= 0 && (window < 0 || ts[j] >= t-window); j-- {
				sum += m[ts[j]]
				n++
			}
			v := sum
			if avg {
				v = sum / float64(n)
			}
			e.rows[rpKey(k[0], k[1], t)] = []nf{some(m[t]), some(v)}
		}
	}
	return e
}

// forecast answers UPSERT s[t1] = s[t0] + (s[t0] - s[t0-1]) * 0.5 over
// PBY(r, p) DBY(t): every selected row, plus (or overwriting) cell t1 in
// each partition; rows with t >= from are kept.
func forecast(cells []fcell, t0, from int) expected {
	e := newExpected(3)
	for k, m := range byRP(cells) {
		for t, s := range m {
			if t < from {
				continue
			}
			e.rows[rpKey(k[0], k[1], t)] = []nf{some(s)}
		}
		a, b := lookup(m, t0), lookup(m, t0-1)
		v := nf{}
		if a.ok && b.ok {
			v = some(a.v + (a.v-b.v)*0.5)
		}
		e.rows[rpKey(k[0], k[1], t0+1)] = []nf{v}
	}
	return e
}

// shareOfParent answers S5: share[*] = s[cv(p)] / s[par[cv(p)]] over
// PBY(r, t) DBY(p), with par resolved through the product reference sheet.
func (st *store) shareOfParent(cells []fcell) expected {
	parts := map[string]map[string]float64{}
	for _, f := range cells {
		k := rowKey(f.r, strconv.Itoa(f.t))
		if parts[k] == nil {
			parts[k] = map[string]float64{}
		}
		parts[k][f.p] = f.s
	}
	e := newExpected(3)
	for _, f := range cells {
		m := parts[rowKey(f.r, strconv.Itoa(f.t))]
		pv, ok := m[st.par[f.p]]
		e.rows[rpKey(f.r, f.p, f.t)] = []nf{some(f.s), div(some(f.s), nf{pv, ok})}
	}
	return e
}

// runningOverProducts answers rt[*] = sum(s)[p <= cv(p)] over
// PBY(r, t) DBY(p).
func runningOverProducts(cells []fcell) expected {
	parts := map[string][]fcell{}
	for _, f := range cells {
		k := rowKey(f.r, strconv.Itoa(f.t))
		parts[k] = append(parts[k], f)
	}
	e := newExpected(3)
	for _, fs := range parts {
		sort.Slice(fs, func(i, j int) bool { return fs[i].p < fs[j].p })
		sum := 0.0
		for _, f := range fs {
			sum += f.s
			e.rows[rpKey(f.r, f.p, f.t)] = []nf{some(f.s), some(sum)}
		}
	}
	return e
}

// groupRatio answers the join + group-by sheet: s summed per (parent of
// the selected products, t), then g[*] = s[cv(t)] / s[cv(t)-1].
func (st *store) groupRatio(cells []fcell) expected {
	groups := map[string]map[int]float64{}
	for _, f := range cells {
		g := st.par[f.p]
		if groups[g] == nil {
			groups[g] = map[int]float64{}
		}
		groups[g][f.t] += f.s
	}
	e := newExpected(2)
	for g, m := range groups {
		for t, s := range m {
			e.rows[rowKey(g, strconv.Itoa(t))] = []nf{some(s), div(some(s), lookup(m, t-1))}
		}
	}
	return e
}

// relTol is how far two floats may differ, relative to the larger.
const relTol = 1e-9

func closeEnough(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= relTol*math.Max(math.Abs(a), math.Abs(b))
}

// checkRows compares a served result with the expectation: same row count,
// every row's key expected exactly once, every measure within relTol.
func checkRows(e expected, res *wire.Result) error {
	if res == nil {
		return fmt.Errorf("no result")
	}
	if len(res.Rows) != len(e.rows) {
		return fmt.Errorf("got %d rows, want %d", len(res.Rows), len(e.rows))
	}
	seen := make(map[string]bool, len(res.Rows))
	parts := make([]string, e.nkey)
	for _, row := range res.Rows {
		if len(row) < e.nkey {
			return fmt.Errorf("row has %d columns", len(row))
		}
		for i := 0; i < e.nkey; i++ {
			parts[i] = row[i].String()
		}
		k := rowKey(parts...)
		want, ok := e.rows[k]
		if !ok || seen[k] {
			return fmt.Errorf("unexpected or repeated row %q", strings.ReplaceAll(k, "\x00", "|"))
		}
		seen[k] = true
		if len(row)-e.nkey != len(want) {
			return fmt.Errorf("row %q has %d measures, want %d", k, len(row)-e.nkey, len(want))
		}
		for j, w := range want {
			got := row[e.nkey+j]
			if got.IsNull() != !w.ok {
				return fmt.Errorf("row %q col %d: got %v, want %v", k, e.nkey+j, got, w)
			}
			if w.ok && (!got.IsNumeric() || !closeEnough(got.Float(), w.v)) {
				return fmt.Errorf("row %q col %d: got %v, want %v", k, e.nkey+j, got, w.v)
			}
		}
	}
	return nil
}

// checkAffected checks a DML acknowledgement's affected-row count.
func checkAffected(res *wire.Result, n int) error {
	if res == nil || len(res.Rows) != 1 || len(res.Rows[0]) != 1 {
		return fmt.Errorf("malformed DML reply")
	}
	if v := res.Rows[0][0]; v.K != types.KindInt || v.Int() != int64(n) {
		return fmt.Errorf("affected %v rows, want %d", v, n)
	}
	return nil
}
