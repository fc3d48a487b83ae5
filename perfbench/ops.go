package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// stmt is one generated operation: its SQL text and how to check it.
type stmt struct {
	// kind names the template a read came from.
	kind string
	// id names a read's statement; repeated reads of one id share an
	// expectation until a write touches one of its regions.
	id      string
	sql     string
	write   bool
	regions []string
	// expect computes a read's answer from the model.
	expect func(st *store) expected
	// affected is a write's expected row count; apply replays it on the
	// model once acknowledged; bytes is the user data it writes.
	affected int
	apply    func(st *store)
	bytes    int64
}

func whereRegions(regions []string) string {
	if len(regions) == 1 {
		return "r = '" + regions[0] + "'"
	}
	return "r IN (" + quoteList(regions) + ")"
}

func whereProds(prods []string) string {
	if prods == nil {
		return ""
	}
	return " AND p IN (" + quoteList(prods) + ")"
}

const (
	refTime    = "REFERENCE prior ON (SELECT t, t_prev, t_yago FROM time_dt) DBY(t) MEA(t_prev, t_yago)"
	refProduct = "REFERENCE pref ON (SELECT p, par FROM product_dt) DBY(p) MEA(par)"
)

// priorPeriod is a dashboard ratio to the previous month or the same month
// a year earlier, resolved through the time_dt reference sheet, showing
// months from onwards (an outer filter: the sheet still reads every month).
func priorPeriod(r string, prods []string, yago bool, from int) stmt {
	col, lag := "t_prev", 1
	if yago {
		col, lag = "t_yago", 12
	}
	sql := fmt.Sprintf("SELECT r, p, t, s, q FROM (SELECT r, p, t, s, q FROM sales WHERE %s%s SPREADSHEET %s PBY(r, p) DBY(t) MEA(s, 0 q) RULES UPDATE (q[*] = s[cv(t)] / s[%s[cv(t)]])) v WHERE t >= %d",
		whereRegions([]string{r}), whereProds(prods), refTime, col, from)
	return stmt{sql: sql, regions: []string{r}, expect: func(st *store) expected {
		return lagRatio(st.filter([]string{r}, prods, 0, 1<<30, nil), lag, from)
	}}
}

// shareOfParent is the paper's S5: each product's share of its parent per
// region and month, the parent found through the product reference sheet.
func shareOfParent(regions, prods []string, tlo, thi int, extra string, pred func(fcell) bool) stmt {
	sql := fmt.Sprintf("SELECT r, p, t, s, share FROM sales WHERE %s AND t BETWEEN %d AND %d%s%s SPREADSHEET %s PBY(r, t) DBY(p) MEA(s, 0 share) RULES UPDATE (share[*] = s[cv(p)] / s[par[cv(p)]])",
		whereRegions(regions), tlo, thi, whereProds(prods), extra, refProduct)
	return stmt{sql: sql, regions: regions, expect: func(st *store) expected {
		return st.shareOfParent(st.filter(regions, prods, tlo, thi, pred))
	}}
}

// forecastStmt extrapolates month t0+1 from the last two months (UPSERT),
// showing months from onwards.
func forecastStmt(r string, prods []string, t0, from int) stmt {
	sql := fmt.Sprintf("SELECT r, p, t, s FROM (SELECT r, p, t, s FROM sales WHERE %s%s SPREADSHEET PBY(r, p) DBY(t) MEA(s) RULES UPDATE (UPSERT s[%d] = s[%d] + (s[%d] - s[%d]) * 0.5)) v WHERE t >= %d",
		whereRegions([]string{r}), whereProds(prods), t0+1, t0, t0, t0-1, from)
	return stmt{sql: sql, regions: []string{r}, expect: func(st *store) expected {
		return forecast(st.filter([]string{r}, prods, 0, 1<<30, nil), t0, from)
	}}
}

// runningTotal is a year-to-date style sum(s)[t <= cv(t)] over months.
func runningTotal(regions []string, prodRange [2]string, prods []string, tlo, thi int, extra string, pred func(fcell) bool) stmt {
	where := whereProds(prods)
	if prods == nil {
		where = fmt.Sprintf(" AND p BETWEEN '%s' AND '%s'", prodRange[0], prodRange[1])
	}
	sql := fmt.Sprintf("SELECT r, p, t, s, rt FROM sales WHERE %s%s AND t BETWEEN %d AND %d%s SPREADSHEET PBY(r, p) DBY(t) MEA(s, 0 rt) RULES UPDATE (rt[*] = sum(s)[t <= cv(t)])",
		whereRegions(regions), where, tlo, thi, extra)
	return stmt{sql: sql, regions: regions, expect: func(st *store) expected {
		ps := prods
		if ps == nil {
			ps = st.productRange(prodRange)
		}
		return runningAgg(st.filter(regions, ps, tlo, thi, pred), -1, false)
	}}
}

// movingAvg is avg(s)[t BETWEEN cv(t)-k AND cv(t)].
func movingAvg(regions, prods []string, tlo, thi, k int, extra string, pred func(fcell) bool) stmt {
	sql := fmt.Sprintf("SELECT r, p, t, s, mv FROM sales WHERE %s%s AND t BETWEEN %d AND %d%s SPREADSHEET PBY(r, p) DBY(t) MEA(s, 0 mv) RULES UPDATE (mv[*] = avg(s)[t BETWEEN cv(t) - %d AND cv(t)])",
		whereRegions(regions), whereProds(prods), tlo, thi, extra, k)
	return stmt{sql: sql, regions: regions, expect: func(st *store) expected {
		return runningAgg(st.filter(regions, prods, tlo, thi, pred), k, true)
	}}
}

// yearAgo is s[cv(t)] / s[cv(t)-12] over rows above a threshold.
func yearAgo(regions, prods []string, tlo, thi int, thr float64) stmt {
	sql := fmt.Sprintf("SELECT r, p, t, s, q FROM sales WHERE %s%s AND t BETWEEN %d AND %d AND s > %s SPREADSHEET PBY(r, p) DBY(t) MEA(s, 0 q) RULES UPDATE (q[*] = s[cv(t)] / s[cv(t) - 12])",
		whereRegions(regions), whereProds(prods), tlo, thi, amountLit(thr))
	return stmt{sql: sql, regions: regions, expect: func(st *store) expected {
		return lagRatio(st.filter(regions, prods, tlo, thi, func(f fcell) bool { return f.s > thr }), 12, 0)
	}}
}

// groupSheet joins sales to product_dt, sums each product level to its
// parents, and feeds the groups into a month-over-month sheet.
func groupSheet(regions []string, lvl, tlo, thi int, thr float64) stmt {
	rs := "f." + whereRegions(regions)
	sql := fmt.Sprintf("SELECT g, t, s, gr FROM (SELECT d.par AS g, f.t AS t, f.s AS s FROM sales f JOIN product_dt d ON f.p = d.p WHERE %s AND d.lvl = %d AND f.t BETWEEN %d AND %d AND f.s > %s) x GROUP BY g, t SPREADSHEET PBY(g) DBY(t) MEA(sum(s) s, 0 gr) RULES UPDATE (gr[*] = s[cv(t)] / s[cv(t) - 1])",
		rs, lvl, tlo, thi, amountLit(thr))
	return stmt{sql: sql, regions: regions, expect: func(st *store) expected {
		return st.groupRatio(st.filter(regions, nil, tlo, thi, func(f fcell) bool {
			return st.lvl[f.p] == lvl && f.s > thr
		}))
	}}
}

// runningOverProductsStmt is a running total along the product dimension
// inside PBY(r, t) partitions (a rank-style sheet over a product range).
func runningOverProductsStmt(r string, lo, hi string, tlo, thi int, thr float64) stmt {
	sql := fmt.Sprintf("SELECT r, p, t, s, rt FROM sales WHERE r = '%s' AND p BETWEEN '%s' AND '%s' AND t BETWEEN %d AND %d AND s > %s SPREADSHEET PBY(r, t) DBY(p) MEA(s, 0 rt) RULES UPDATE (rt[*] = sum(s)[p <= cv(p)])",
		r, lo, hi, tlo, thi, amountLit(thr))
	return stmt{sql: sql, regions: []string{r}, expect: func(st *store) expected {
		return runningOverProducts(st.filter([]string{r}, st.productRange([2]string{lo, hi}), tlo, thi,
			func(f fcell) bool { return f.s > thr }))
	}}
}

// productRange lists the hierarchy's products named within [lo, hi].
func (st *store) productRange(rng [2]string) []string {
	var out []string
	for _, n := range st.h.names {
		if n >= rng[0] && n <= rng[1] {
			out = append(out, n)
		}
	}
	return out
}

// updateCell is a single-row correction.
func updateCell(r, p string, t int, v float64) stmt {
	sql := fmt.Sprintf("UPDATE sales SET s = %s WHERE r = '%s' AND p = '%s' AND t = %d", amountLit(v), r, p, t)
	return stmt{kind: "update", sql: sql, write: true, regions: []string{r}, affected: 1, bytes: userBytes(r, p),
		apply: func(st *store) { st.c.set(r, p, t, v) }}
}

// insertRows appends facts with one multi-row INSERT.
func insertRows(r string, prods []string, t int, vals []float64) stmt {
	var b strings.Builder
	b.WriteString("INSERT INTO sales VALUES ")
	var n int64
	for i, p := range prods {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "('%s', '%s', %d, %s)", r, p, t, amountLit(vals[i]))
		n += userBytes(r, p)
	}
	return stmt{kind: "insert", sql: b.String(), write: true, regions: []string{r}, affected: len(prods), bytes: n,
		apply: func(st *store) {
			for i, p := range prods {
				st.c.set(r, p, t, vals[i])
			}
		}}
}

// opStream yields one session's operations in order. It depends only on
// its seed and its own earlier operations, never on timing, so a seed
// fixes the whole operation log.
type opStream func() stmt

// dashboardShown is how many recent months a dashboard ratio shows.
const dashboardShown = 12

// dashboardStream: Zipf-distributed reads over a fixed catalogue of
// parameterised statements on the session's regions, 10% writes
// (three UPDATE corrections to one INSERT of a new month). The
// catalogue's rank order interleaves statement classes (template × product
// level) in a fixed order, and the seed only picks members within a class,
// so every seed puts the same kind of statement at each popularity rank.
func dashboardStream(rng *rand.Rand, d *dataset, regions []string) opStream {
	h := d.h
	classes := map[string][]stmt{}
	add := func(class string, s stmt) {
		s.kind = class[:strings.IndexByte(class, '/')]
		classes[class] = append(classes[class], s)
	}
	for _, r := range regions {
		for _, n := range h.internal() {
			prods := h.namesOf(h.subtree(n))
			lvl := fmt.Sprintf("/l%d", h.level[n])
			pp := priorPeriod(r, prods, false, d.months-dashboardShown+1)
			pp.id = fmt.Sprintf("pp/%s/%d", r, n)
			add("prev"+lvl, pp)
			ya := priorPeriod(r, prods, true, d.months-dashboardShown+1)
			ya.id = fmt.Sprintf("ya/%s/%d", r, n)
			add("yago"+lvl, ya)
			fc := forecastStmt(r, prods, d.months, d.months-dashboardShown+1)
			fc.id = fmt.Sprintf("fc/%s/%d", r, n)
			add("forecast"+lvl, fc)
		}
		for t := 1; t <= d.months; t++ {
			s5 := shareOfParent([]string{r}, nil, t, t, "", nil)
			s5.id = fmt.Sprintf("s5/%s/%d", r, t)
			add("s5/", s5)
		}
	}
	order := []string{"prev/l1", "s5/", "forecast/l1", "yago/l1", "prev/l2", "forecast/l2", "yago/l2",
		"prev/l0", "forecast/l0", "yago/l0"}
	var cat []stmt
	for _, c := range order {
		m := classes[c]
		rng.Shuffle(len(m), func(i, j int) { m[i], m[j] = m[j], m[i] })
	}
	for i, added := 0, true; added; i++ {
		added = false
		for _, c := range order {
			if i < len(classes[c]) {
				cat = append(cat, classes[c][i])
				added = true
			}
		}
	}
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(cat)-1))
	leaves := h.leaves()
	next := map[[2]string]int{}
	return func() stmt {
		if rng.Intn(10) != 0 {
			return cat[zipf.Uint64()]
		}
		// One write in four appends a month; the rest are corrections.
		// Their latencies differ several-fold, so an even split would put
		// the median write between the two bands.
		r := regions[rng.Intn(len(regions))]
		if rng.Intn(4) == 0 {
			p := h.names[leaves[rng.Intn(len(leaves))]]
			k := [2]string{r, p}
			if next[k] == 0 {
				next[k] = d.months + 1
			}
			if next[k] <= d.tmax {
				next[k]++
				return insertRows(r, []string{p}, next[k]-1, []float64{amount(rng)})
			}
		}
		p := h.names[rng.Intn(len(h.names))]
		return updateCell(r, p, 1+rng.Intn(d.months), amount(rng))
	}
}

// adhocMix is the adhoc template rotation: S5, YTD, year-ago, moving
// average, year-ago again, group sheet. Year-ago runs twice so the median
// read lands inside one template's latency band rather than between two.
var adhocMix = []int{0, 1, 3, 2, 3, 4}

// adhocStream: every statement distinct — random regions, windows,
// thresholds and product subsets over the paper's templates.
func adhocStream(rng *rand.Rand, d *dataset) opStream {
	h := d.h
	seq := 0
	pickRegions := func(max int) []string {
		perm := rng.Perm(len(d.regions))
		n := 1 + rng.Intn(max)
		out := make([]string, n)
		for i := range out {
			out[i] = d.regions[perm[i]]
		}
		return out
	}
	subtree := func() []string {
		top := h.children[0]
		return h.namesOf(h.subtree(top[rng.Intn(len(top))]))
	}
	window := func(min, max int) (int, int) {
		n := min + rng.Intn(max-min+1)
		lo := 1 + rng.Intn(d.months-n+1)
		return lo, lo + n - 1
	}
	return func() stmt {
		seq++
		// A tiny threshold every amount passes makes each text distinct
		// even when the random parameters repeat.
		tiny := float64(seq) / (1 << 20)
		pass := func(f fcell) bool { return f.s > tiny }
		extra := " AND s > " + amountLit(tiny)
		var s stmt
		switch adhocMix[seq%len(adhocMix)] {
		case 0:
			lo, hi := window(1, 3)
			s = shareOfParent(pickRegions(3), nil, lo, hi, extra, pass)
			s.kind = "s5"
		case 1:
			year := rng.Intn(d.months / 12)
			lo := year*12 + 1
			hi := lo + 11 + rng.Intn(13)
			if hi > d.months {
				hi = d.months
			}
			s = runningTotal(pickRegions(2), [2]string{}, subtree(), lo, hi, extra, pass)
			s.kind = "ytd"
		case 2:
			lo, hi := window(12, 36)
			s = movingAvg(pickRegions(2), subtree(), lo, hi, 2+rng.Intn(5), extra, pass)
			s.kind = "moving"
		case 3:
			lo, hi := window(24, d.months)
			s = yearAgo(pickRegions(3), subtree(), lo, hi, tiny+float64(rng.Intn(400)))
			s.kind = "yago"
		default:
			lo, hi := window(12, d.months)
			s = groupSheet(pickRegions(4), 2+rng.Intn(2), lo, hi, tiny+float64(rng.Intn(200)))
			s.kind = "group"
		}
		return s
	}
}

// ingestStream appends whole months to the session's region in chunks,
// with a single-cell correction every fifth write; each write is followed
// by a running-total read over the rows it wrote.
func ingestStream(rng *rand.Rand, d *dataset, r string, chunk int) opStream {
	h := d.h
	leaves := h.namesOf(h.leaves())
	month, pos, writes := d.months+1, 0, 0
	var pending *stmt
	return func() stmt {
		if pending != nil {
			s := *pending
			pending = nil
			return s
		}
		writes++
		var w, rd stmt
		if writes%5 == 0 {
			p := leaves[rng.Intn(len(leaves))]
			t := month - 1
			w = updateCell(r, p, t, amount(rng))
			rd = runningTotal([]string{r}, [2]string{}, []string{p}, t-5, t, "", nil)
		} else {
			end := min(pos+chunk, len(leaves))
			prods := leaves[pos:end]
			vals := make([]float64, len(prods))
			for i := range vals {
				vals[i] = amount(rng)
			}
			w = insertRows(r, prods, month, vals)
			rd = runningTotal([]string{r}, [2]string{prods[0], prods[len(prods)-1]}, nil, month-5, month, "", nil)
			pos = end
			if pos == len(leaves) {
				pos = 0
				month++
			}
		}
		rd.kind = "readback"
		pending = &rd
		return w
	}
}

// spillStream runs cold S5 sheets over one whole month, and every third
// operation a running total along a product range of two months — few,
// large partitions.
func spillStream(rng *rand.Rand, d *dataset) opStream {
	h := d.h
	r := d.regions[0]
	seq := 0
	return func() stmt {
		seq++
		tiny := float64(seq) / (1 << 20)
		lo := 1 + rng.Intn(d.months-1)
		if seq%3 != 0 {
			s := shareOfParent([]string{r}, nil, lo, lo, " AND s > "+amountLit(tiny),
				func(f fcell) bool { return f.s > tiny })
			s.kind = "s5"
			return s
		}
		n := len(h.names)
		a := rng.Intn(n - spillRunWidth)
		s := runningOverProductsStmt(r, h.names[a], h.names[a+spillRunWidth-1], lo, lo+1, tiny)
		s.kind = "running"
		return s
	}
}

// spillRunWidth is the product range of one running-total sheet.
const spillRunWidth = 400

// reportStmt records that a report ran: a small write to a table no sheet
// reads, so the read-only mixes still measure acknowledged writes.
func reportStmt(id int64, kind string) stmt {
	n := int64(8 + len(kind))
	return stmt{kind: "report", sql: fmt.Sprintf("INSERT INTO reports VALUES (%d, '%s')", id, kind), write: true,
		affected: 1, bytes: n, apply: func(st *store) {
			st.reports[id] = kind
			st.reportBytes += n
		}}
}

// withReports follows every read of a stream with a report write.
func withReports(next opStream) opStream {
	var id int64
	var pending *stmt
	return func() stmt {
		if pending != nil {
			s := *pending
			pending = nil
			return s
		}
		s := next()
		id++
		r := reportStmt(id, s.kind)
		pending = &r
		return s
	}
}
