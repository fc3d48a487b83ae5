package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// hier is a generated product hierarchy: node 0 is the root, children are
// numbered breadth-first, and names are zero-padded so that string order
// equals numeric order (the engine compares TEXT dimensions bytewise).
type hier struct {
	names    []string
	parent   []int
	level    []int
	children [][]int
}

func newHier(fanout []int) hier {
	h := hier{names: []string{"p00000"}, parent: []int{0}, level: []int{0}, children: [][]int{nil}}
	frontier := []int{0}
	for lvl, f := range fanout {
		var next []int
		for _, n := range frontier {
			for i := 0; i < f; i++ {
				id := len(h.names)
				h.names = append(h.names, fmt.Sprintf("p%05d", id))
				h.parent = append(h.parent, n)
				h.level = append(h.level, lvl+1)
				h.children = append(h.children, nil)
				h.children[n] = append(h.children[n], id)
				next = append(next, id)
			}
		}
		frontier = next
	}
	return h
}

// subtree lists n and all its descendants, in id order.
func (h hier) subtree(n int) []int {
	out := []int{n}
	for i := 0; i < len(out); i++ {
		out = append(out, h.children[out[i]]...)
	}
	sort.Ints(out)
	return out
}

func (h hier) leaves() []int {
	var out []int
	for i, c := range h.children {
		if len(c) == 0 {
			out = append(out, i)
		}
	}
	return out
}

func (h hier) internal() []int {
	var out []int
	for i, c := range h.children {
		if len(c) > 0 {
			out = append(out, i)
		}
	}
	return out
}

// cell addresses one sales fact.
type cell struct {
	r, p string
	t    int
}

// cube is the plain-Go model of a sales(r, p, t, s) table: region →
// product → month → amount. Expected answers are computed from it.
type cube struct {
	data map[string]map[string]map[int]float64
	n    int
}

func newCube() *cube { return &cube{data: map[string]map[string]map[int]float64{}} }

func (c *cube) set(r, p string, t int, v float64) {
	ps := c.data[r]
	if ps == nil {
		ps = map[string]map[int]float64{}
		c.data[r] = ps
	}
	ts := ps[p]
	if ts == nil {
		ts = map[int]float64{}
		ps[p] = ts
	}
	if _, ok := ts[t]; !ok {
		c.n++
	}
	ts[t] = v
}

func (c *cube) get(r, p string, t int) (float64, bool) {
	v, ok := c.data[r][p][t]
	return v, ok
}

// rows lists every fact in (r, p, t) order.
func (c *cube) rows() []cell {
	out := make([]cell, 0, c.n)
	for r, ps := range c.data {
		for p, ts := range ps {
			for t := range ts {
				out = append(out, cell{r, p, t})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.r != b.r {
			return a.r < b.r
		}
		if a.p != b.p {
			return a.p < b.p
		}
		return a.t < b.t
	})
	return out
}

// userBytes is the logical size of one fact: its two strings plus eight
// bytes for each numeric column.
func userBytes(r, p string) int64 { return int64(len(r) + len(p) + 16) }

// amount draws a positive amount that is exact in binary (a multiple of
// 1/8), so SQL literals and Go floats agree bit for bit.
func amount(rng *rand.Rand) float64 { return float64(8+rng.Intn(8000)) / 8 }

func amountLit(v float64) string { return fmt.Sprintf("%g", v) }

// genCube fills months 1..months for every region with leaf amounts and
// rolls them up the hierarchy, so a parent's amount is the sum of its
// children's (the shape share-of-parent queries expect).
func genCube(rng *rand.Rand, regions []string, h hier, months int) *cube {
	c := newCube()
	leaves := h.leaves()
	for _, r := range regions {
		for t := 1; t <= months; t++ {
			sum := make([]float64, len(h.names))
			for _, l := range leaves {
				v := amount(rng)
				for n := l; ; n = h.parent[n] {
					sum[n] += v
					if n == 0 {
						break
					}
				}
			}
			for n, v := range sum {
				c.set(r, h.names[n], t, v)
			}
		}
	}
	return c
}

// dataset is everything one workload loads before it starts.
type dataset struct {
	h       hier
	sales   *cube
	regions []string
	months  int // months present at load time
	tmax    int // last month covered by time_dt
}

func regionNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("r%d", i)
	}
	return out
}

func quoteList(xs []string) string {
	q := make([]string, len(xs))
	for i, x := range xs {
		q[i] = "'" + x + "'"
	}
	return strings.Join(q, ", ")
}

func (h hier) namesOf(ids []int) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = h.names[id]
	}
	return out
}

// tableRows renders the three tables as engine insert rows.
func (d *dataset) salesRows() [][]any {
	cells := d.sales.rows()
	out := make([][]any, len(cells))
	for i, c := range cells {
		v, _ := d.sales.get(c.r, c.p, c.t)
		out[i] = []any{c.r, c.p, c.t, v}
	}
	return out
}

func (d *dataset) productRows() [][]any {
	out := make([][]any, len(d.h.names))
	for i, n := range d.h.names {
		out[i] = []any{n, d.h.names[d.h.parent[i]], d.h.level[i]}
	}
	return out
}

func (d *dataset) timeRows() [][]any {
	out := make([][]any, d.tmax)
	for t := 1; t <= d.tmax; t++ {
		out[t-1] = []any{t, t - 1, t - 12}
	}
	return out
}

// userBytes is the logical size of all three tables.
func (d *dataset) userBytes() int64 {
	var n int64
	for r, ps := range d.sales.data {
		for p, ts := range ps {
			n += int64(len(ts)) * userBytes(r, p)
		}
	}
	for _, name := range d.h.names {
		n += int64(2*len(name) + 8)
	}
	return n + int64(d.tmax)*24
}

// hash fingerprints the generated tables, in load order.
func (d *dataset) hash() string {
	h := sha256.New()
	for _, rows := range [][][]any{d.salesRows(), d.productRows(), d.timeRows()} {
		for _, r := range rows {
			fmt.Fprintln(h, r...)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// opLogHash fingerprints the first n operations of every session's stream
// for a seed, generated afresh (streams are stateful).
func opLogHash(w *workload, seed int64, n int) string {
	d := w.data(rand.New(rand.NewSource(seed)))
	h := sha256.New()
	for i, next := range w.streams(sessionRNG(seed, w.name), d) {
		for j := 0; j < n; j++ {
			fmt.Fprintf(h, "%d\t%s\n", i, next().sql)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
