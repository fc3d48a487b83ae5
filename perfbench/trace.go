package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sync"
	"time"

	"sqlsheet"
	"sqlsheet/internal/blockstore"
	"sqlsheet/internal/catalog"
	"sqlsheet/internal/core"
	"sqlsheet/internal/exec"
	"sqlsheet/internal/parser"
	"sqlsheet/internal/plan"
	"sqlsheet/internal/sqlast"
	"sqlsheet/internal/types"
	"sqlsheet/internal/wal"
	"sqlsheet/internal/wire"
)

// span is one timed step of a traced operation. Times are nanoseconds
// since the tracer started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Note   string `json:"note,omitempty"`
}

// tracer runs the traced window. The served path carries no tracing: the
// root span of each operation times the client round trip, and child spans
// come from replaying the operation through each layer's exported entry
// points against a private catalog holding the same rows. Traced
// operations are serialized across sessions so cache and WAL counter
// deltas belong to exactly one operation.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	next  int64
	ops   int64

	cfg  sqlsheet.Config
	inst *instance
	cat  *catalog.Catalog
	log  *wal.Log
	dir  string

	agg  layerSums
	errs []string
}

// layerSums accumulates what the per-layer metrics are computed from.
type layerSums struct {
	reads, writes, executed int
	replyBytes              int64
	rowsIn, rowsOut         int64
	execAlloc               uint64
	vec                     struct{ ruleBatch, ruleRow, scanBatch, scanRow int64 }
	sheet                   blockstore.Stats
	userBytes               int64
	checkpoints             int64
	checkpointStall         time.Duration
	cache0, cache1          cacheSnap
	served0, served1        serverSnap
	pathMismatch            int
}

// cacheSnap is DB.CacheCounters plus WAL counters at one instant.
type cacheSnap struct {
	c sqlsheet.CacheCounters
	w sqlsheet.WALCounters
}

func snapCache(inst *instance) cacheSnap {
	w, _ := inst.db.WALCounters()
	return cacheSnap{inst.db.CacheCounters(), w}
}

// serverSnap is the server's latency histogram totals and admission
// rejections, read from its /metrics endpoint on loopback.
type serverSnap struct {
	count    int64
	sumMS    float64
	rejected int64
}

func snapServer(inst *instance) (serverSnap, error) {
	resp, err := http.Get("http://" + inst.srv.MetricsAddr() + "/metrics")
	if err != nil {
		return serverSnap{}, err
	}
	defer resp.Body.Close()
	var m struct {
		AdmissionRejected int64 `json:"admission_rejected"`
		Latency           struct {
			Count int64   `json:"count"`
			SumMS float64 `json:"sum_ms"`
		} `json:"latency"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return serverSnap{}, err
	}
	return serverSnap{m.Latency.Count, m.Latency.SumMS, m.AdmissionRejected}, nil
}

// newTracer copies the served tables, in their served row order, into a
// private catalog, and opens a scratch WAL for write replays. Sessions are
// idle while it runs.
func newTracer(d *dataset, cfg sqlsheet.Config, inst *instance, dir string) (*tracer, error) {
	tr := &tracer{t0: time.Now(), cfg: cfg, inst: inst, cat: catalog.New(), dir: dir}
	for _, name := range []string{"sales", "product_dt", "time_dt", "reports"} {
		res, err := inst.db.Query("SELECT * FROM " + name)
		if err != nil {
			return nil, fmt.Errorf("trace: copy %s: %w", name, err)
		}
		cols := make([]types.Column, len(res.Columns))
		for i, c := range res.Columns {
			cols[i] = types.Column{Name: c, Kind: tableKinds[name][i]}
		}
		t, err := tr.cat.Create(name, types.NewSchema(cols...))
		if err != nil {
			return nil, err
		}
		for _, r := range res.Rows {
			if err := t.Insert(r.Clone()); err != nil {
				return nil, err
			}
		}
	}
	tr.cat.PublishAll()
	l, err := wal.Open(filepath.Join(dir, "wal"), wal.SyncGroup, 0)
	if err != nil {
		return nil, err
	}
	tr.log = l
	tr.agg.cache0 = snapCache(inst)
	if tr.agg.served0, err = snapServer(inst); err != nil {
		return nil, fmt.Errorf("trace: metrics endpoint: %w", err)
	}
	return tr, nil
}

var tableKinds = map[string][]types.Kind{
	"sales":      {types.KindString, types.KindString, types.KindInt, types.KindFloat},
	"product_dt": {types.KindString, types.KindString, types.KindInt},
	"time_dt":    {types.KindInt, types.KindInt, types.KindInt},
	"reports":    {types.KindInt, types.KindString},
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.t0)) }

// open starts a span; the returned function ends it.
func (tr *tracer) open(op, parent int64, name string) (int64, func(note string)) {
	tr.next++
	id := tr.next
	start := tr.now()
	return id, func(note string) {
		tr.spans = append(tr.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: tr.now(), Note: note})
	}
}

// timed records a span around f.
func (tr *tracer) timed(op, parent int64, name string, f func()) {
	_, end := tr.open(op, parent, name)
	f()
	end("")
}

func (tr *tracer) errorf(format string, args ...any) {
	if len(tr.errs) < 5 {
		tr.errs = append(tr.errs, fmt.Sprintf(format, args...))
	}
}

func (tr *tracer) errors() []string {
	if tr.agg.pathMismatch > 0 {
		return append(tr.errs, fmt.Sprintf("path agreement: %d served reads differ from the serial uncached replay", tr.agg.pathMismatch))
	}
	return tr.errs
}

// do serves one operation under the trace and replays it layer by layer.
func (tr *tracer) do(s *session, op stmt, stats *sessionStats) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.ops++
	opID := tr.ops
	before := snapCache(tr.inst)
	rootID, endRoot := tr.open(opID, 0, "client.Query")
	start := time.Now()
	res, err := s.cl.Query(op.sql)
	lat := time.Since(start)
	after := snapCache(tr.inst)
	out := outcome{
		resultHit: after.c.ResultHits > before.c.ResultHits,
		planHit:   after.c.PlanHits > before.c.PlanHits,
		reused:    after.c.StructReuses > before.c.StructReuses,
	}
	note := op.kind + " write"
	if !op.write {
		note = op.kind + " " + out.String()
	}
	endRoot(note)
	ok := s.settle(op, res, err, lat, stats)
	if op.write {
		tr.agg.writes++
		if after.w.Checkpoints > before.w.Checkpoints {
			tr.agg.checkpointStall += lat
			tr.agg.checkpoints += after.w.Checkpoints - before.w.Checkpoints
		}
		if ok {
			tr.agg.userBytes += op.bytes
		}
		tr.replayWrite(opID, rootID, op)
		return
	}
	tr.agg.reads++
	tr.replayRead(opID, rootID, op, res, out)
}

// outcome is a served read's cache outcome, from DB.CacheCounters deltas.
type outcome struct {
	resultHit, planHit, reused bool
}

func (o outcome) String() string {
	if o.resultHit {
		return "result-hit"
	}
	s := "miss"
	if o.planHit {
		s = "plan-hit"
	}
	if o.reused {
		s += "+struct-reuse"
	}
	return s
}

// executor returns a replay executor: the served options made serial (one
// worker, one PE), keeping the served bucket count so row order matches
// byte for byte.
func (tr *tracer) executor() *exec.Executor {
	o := tr.cfg
	ex := exec.New(tr.cat, exec.Options{
		Workers:       1,
		Parallel:      1,
		Buckets:       tr.buckets(),
		MemoryBudget:  o.MemoryBudget,
		SpillDir:      o.SpillDir,
		FastLocalPath: o.MemoryBudget == 0,
	})
	ex.Opts.PlanOpts = &plan.Options{Workers: 1, Parallel: 1, Exec: ex}
	return ex
}

// buckets is the served first-level partition count for unbudgeted runs
// (the requested PE count); budgeted runs size buckets from the input, the
// same way on both paths, so 0 leaves that choice to the engine.
func (tr *tracer) buckets() int {
	if tr.cfg.MemoryBudget > 0 || tr.cfg.Parallel <= 1 {
		return 0
	}
	return tr.cfg.Parallel
}

func findSheet(n plan.Node) *plan.Spreadsheet {
	if s, ok := n.(*plan.Spreadsheet); ok {
		return s
	}
	for _, c := range n.Children() {
		if s := findSheet(c); s != nil {
			return s
		}
	}
	return nil
}

func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// replayRead mirrors a served read through parser, plan, exec and core,
// emitting spans only for the steps the served cache outcome executed,
// then checks path agreement against a serial uncached execution.
func (tr *tracer) replayRead(opID, root int64, op stmt, served *wire.Result, out outcome) {
	miss := !out.resultHit && !out.planHit
	tr.timed(opID, root, "parser.Fingerprint", func() { _, _ = parser.Fingerprint(op.sql) })

	var stmts []sqlast.Statement
	var err error
	parse := func() { stmts, err = parser.Parse(op.sql) }
	if miss {
		tr.timed(opID, root, "parser.Parse", parse)
	} else {
		parse()
	}
	if err != nil || len(stmts) != 1 {
		tr.errorf("replay parse: %v", err)
		return
	}
	sel, _ := stmts[0].(*sqlast.SelectStmt)
	if sel == nil {
		tr.errorf("replay: not a query")
		return
	}
	ex := tr.executor()
	var p plan.Node
	build := func() { p, err = plan.Build(tr.cat, sel, ex.Opts.PlanOpts) }
	if miss {
		tr.timed(opID, root, "plan.Build", build)
	} else {
		build()
	}
	if err != nil {
		tr.errorf("replay plan: %v", err)
		return
	}
	if !out.resultHit {
		if n := findSheet(p); n != nil {
			tr.replaySheet(opID, root, ex, n, out.reused)
		}
	}

	// Path agreement: the serial, uncached execution of the same text
	// must encode to exactly the bytes the server sent.
	var want *exec.Result
	tr.timed(opID, root, "replay.Execute", func() {
		ex2 := tr.executor()
		var p2 plan.Node
		if p2, err = plan.Build(tr.cat, sel, ex2.Opts.PlanOpts); err == nil {
			want, err = ex2.Execute(p2, nil)
		}
	})
	if err != nil {
		tr.errorf("replay execute: %v", err)
		return
	}
	cols, kinds, rows := wireColumns(want)
	var enc []byte
	tr.timed(opID, root, "wire.EncodeResult", func() { enc = wire.EncodeResult(cols, kinds, rows) })
	tr.timed(opID, root, "wire.DecodeResponse", func() { _, err = wire.DecodeResponse(enc) })
	if err != nil {
		tr.errorf("replay decode: %v", err)
	}
	if served != nil {
		got := wire.EncodeResult(served.Cols, served.Kinds, toRows(served.Rows))
		tr.agg.replyBytes += int64(len(got))
		if !bytes.Equal(got, enc) {
			tr.agg.pathMismatch++
			tr.errorf("path agreement: %.200s", op.sql)
		}
	}
}

// replaySheet runs the sheet's input subtree and the spreadsheet model the
// way the executor does, with the build/rules split at OnBuilt.
func (tr *tracer) replaySheet(opID, root int64, ex *exec.Executor, n *plan.Spreadsheet, reused bool) {
	a0 := allocBytes()
	var in *exec.Result
	var err error
	input := func() {
		in, err = ex.Execute(n.Input, nil)
		for i, rp := range n.RefPlans {
			if err != nil {
				return
			}
			var res *exec.Result
			if res, err = ex.Execute(rp, nil); err != nil {
				return
			}
			meta := n.Model.Refs[i]
			meta.Data = make(map[string]types.Row, len(res.Rows))
			for _, row := range res.Rows {
				meta.Data[types.Key(row[:len(meta.Dims)]...)] = row
			}
		}
	}
	if reused {
		input()
	} else {
		tr.timed(opID, root, "exec.Executor.Execute", input)
	}
	if err != nil {
		tr.errorf("replay input: %v", err)
		return
	}
	budget := tr.cfg.MemoryBudget
	newStore := func() blockstore.Store { return blockstore.NewMem() }
	if budget > 0 {
		newStore = func() blockstore.Store {
			return blockstore.NewSpill(blockstore.Config{BudgetBytes: budget, Dir: tr.cfg.SpillDir, RowsPerBlock: 16, Async: true})
		}
	}
	buckets := tr.buckets()
	if buckets == 0 {
		buckets = core.ChooseBuckets(len(in.Rows), 64, budget, tr.cfg.Parallel)
	}
	var vs core.VecStats
	runID, endRun := tr.open(opID, root, "core.Model.Run")
	buildStart := tr.now()
	var built int64
	out, bs, err := n.Model.Run(in.Rows, core.RunOptions{
		Parallel:  1,
		Buckets:   buckets,
		NewStore:  newStore,
		Stats:     &vs,
		FastLocal: budget == 0,
		OnBuilt:   func(*core.PartitionSet) { built = tr.now() },
	})
	endRun("")
	end := tr.spans[len(tr.spans)-1].End
	if !reused {
		tr.next++
		tr.spans = append(tr.spans, span{ID: tr.next, Parent: runID, Op: opID, Name: "core.build", Start: buildStart, End: built})
	}
	tr.next++
	tr.spans = append(tr.spans, span{ID: tr.next, Parent: runID, Op: opID, Name: "core.rules", Start: built, End: end})
	if err != nil {
		tr.errorf("replay model: %v", err)
		return
	}
	tr.agg.execAlloc += allocBytes() - a0
	tr.agg.executed++
	tr.agg.rowsIn += int64(len(in.Rows))
	tr.agg.rowsOut += int64(len(out))
	tr.agg.vec.ruleBatch += vs.RuleBatch.Load()
	tr.agg.vec.ruleRow += vs.RuleRow.Load()
	tr.agg.vec.scanBatch += vs.ScanBatch.Load()
	tr.agg.vec.scanRow += vs.ScanRow.Load()
	tr.agg.sheet.Add(bs)
}

// replayWrite mirrors a served DML statement: parse, apply through the
// executor, publish MVCC images, and log + commit to a scratch WAL.
func (tr *tracer) replayWrite(opID, root int64, op stmt) {
	tr.timed(opID, root, "parser.Fingerprint", func() { _, _ = parser.Fingerprint(op.sql) })
	var stmts []sqlast.Statement
	var err error
	tr.timed(opID, root, "parser.Parse", func() { stmts, err = parser.Parse(op.sql) })
	if err != nil || len(stmts) != 1 {
		tr.errorf("replay parse: %v", err)
		return
	}
	text := []byte(sqlast.FormatStatement(stmts[0]))
	var pos wal.Pos
	tr.timed(opID, root, "wal.Append", func() { pos, err = tr.log.Append(wal.KindStmt, text) })
	if err != nil {
		tr.errorf("replay wal append: %v", err)
		return
	}
	ex := tr.executor()
	tr.timed(opID, root, "exec.ExecStatement", func() { _, err = ex.ExecStatement(stmts[0]) })
	if err != nil {
		tr.errorf("replay apply: %v", err)
	}
	tr.timed(opID, root, "catalog.PublishAll", tr.cat.PublishAll)
	tr.timed(opID, root, "wal.Commit", func() { err = tr.log.Commit(pos) })
	if err != nil {
		tr.errorf("replay wal commit: %v", err)
	}
}

// wireColumns flattens an engine result the way the server does: each
// column's kind is that of its first non-NULL value.
func wireColumns(res *exec.Result) ([]string, []string, []types.Row) {
	cols := make([]string, len(res.Schema.Cols))
	kinds := make([]string, len(cols))
	for i, c := range res.Schema.Cols {
		cols[i] = c.Name
		k := types.KindNull
		for _, row := range res.Rows {
			if row[i].K != types.KindNull {
				k = row[i].K
				break
			}
		}
		kinds[i] = k.String()
	}
	return cols, kinds, res.Rows
}

func toRows(vs [][]types.Value) []types.Row {
	out := make([]types.Row, len(vs))
	for i, v := range vs {
		out[i] = v
	}
	return out
}

// selfTimes sums each span name's self time: its duration minus the part
// covered by its children.
func (tr *tracer) selfTimes() map[string]time.Duration {
	child := map[int64]int64{}
	for _, s := range tr.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := map[string]time.Duration{}
	for _, s := range tr.spans {
		d := s.End - s.Start
		if s.Name != "client.Query" {
			d -= child[s.ID]
		}
		self[s.Name] += time.Duration(d)
	}
	return self
}

// finish snapshots the served counters at the end of the traced window,
// while the server is still up.
func (tr *tracer) finish() {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.agg.cache1 = snapCache(tr.inst)
	s1, err := snapServer(tr.inst)
	if err != nil {
		tr.errorf("metrics endpoint: %v", err)
	}
	tr.agg.served1 = s1
}

// metrics turns the traced window into the per-layer metrics. The root
// span's replay children run after the round trip, so its self time is
// its own duration.
func (tr *tracer) metrics(m *measures) map[string]metric {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	a := &tr.agg
	self := tr.selfTimes()
	reads, writes, ops := float64(max(a.reads, 1)), float64(max(a.writes, 1)), float64(max(a.reads+a.writes, 1))
	exe := float64(max(a.executed, 1))
	ms := func(name string, per float64) float64 { return float64(self[name]) / 1e6 / per }
	us := func(name string, per float64) float64 { return float64(self[name]) / 1e3 / per }
	frac := func(a, b int64) float64 {
		if a+b == 0 {
			return 0
		}
		return float64(a) / float64(a+b)
	}
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	c0, c1 := a.cache0, a.cache1
	dc := func(f func(sqlsheet.CacheCounters) int64) int64 { return f(c1.c) - f(c0.c) }
	dw := func(f func(sqlsheet.WALCounters) int64) int64 { return f(c1.w) - f(c0.w) }
	planHits := dc(func(c sqlsheet.CacheCounters) int64 { return c.PlanHits })
	planMiss := dc(func(c sqlsheet.CacheCounters) int64 { return c.PlanMisses })
	resHits := dc(func(c sqlsheet.CacheCounters) int64 { return c.ResultHits })
	sheet := a.sheet
	dcount := a.served1.count - a.served0.count
	serverMean := 0.0
	if dcount > 0 {
		serverMean = (a.served1.sumMS - a.served0.sumMS) / float64(dcount)
	}
	stall := 0.0
	if a.checkpoints > 0 {
		stall = float64(a.checkpointStall) / 1e6 / float64(a.checkpoints)
	}
	base := m.base
	out := map[string]metric{
		"client.roundtrip_ms":        {ms("client.Query", ops), "ms"},
		"server.exec_ms_mean":        {serverMean, "ms"},
		"server.admission_rejected":  {float64(a.served1.rejected), "count"},
		"wire.reply_bytes_per_read":  {float64(a.replyBytes) / reads, "bytes"},
		"wire.encode_us_per_read":    {us("wire.EncodeResult", reads), "us"},
		"wire.decode_us_per_read":    {us("wire.DecodeResponse", reads), "us"},
		"parser.fingerprint_us":      {us("parser.Fingerprint", ops), "us"},
		"parser.parse_us":            {us("parser.Parse", ops), "us"},
		"plancache.result_hit_ratio": {float64(resHits) / reads, "ratio"},
		"plancache.plan_hit_ratio":   {frac(planHits, planMiss), "ratio"},
		"plancache.struct_reuse_ratio": {ratio(dc(func(c sqlsheet.CacheCounters) int64 { return c.StructReuses }),
			int64(a.reads)-resHits), "ratio"},
		"plancache.invalidations_per_write":   {float64(dc(func(c sqlsheet.CacheCounters) int64 { return c.Invalidations })) / writes, "count"},
		"plancache.evictions_per_1k_reads":    {1000 * float64(dc(func(c sqlsheet.CacheCounters) int64 { return c.Evictions })) / reads, "count"},
		"plan.build_ms":                       {ms("plan.Build", reads), "ms"},
		"exec.input_ms":                       {ms("exec.Executor.Execute", reads), "ms"},
		"exec.rows_in_per_row_out":            {ratio(a.rowsIn, a.rowsOut), "ratio"},
		"exec.alloc_bytes_per_read":           {float64(a.execAlloc) / reads, "bytes"},
		"core.build_ms":                       {ms("core.build", reads), "ms"},
		"core.rules_ms":                       {ms("core.rules", reads), "ms"},
		"core.agg_scans_per_stmt":             {float64(a.vec.scanBatch+a.vec.scanRow) / exe, "count"},
		"core.rule_batch_frac":                {frac(a.vec.ruleBatch, a.vec.ruleRow), "ratio"},
		"core.scan_batch_frac":                {frac(a.vec.scanBatch, a.vec.scanRow), "ratio"},
		"blockstore.block_loads_per_stmt":     {float64(sheet.BlockLoads) / exe, "count"},
		"blockstore.block_evictions_per_stmt": {float64(sheet.BlockEvictions) / exe, "count"},
		"blockstore.bytes_spilled_per_stmt":   {float64(sheet.BytesSpilled) / exe, "bytes"},
		"blockstore.bytes_loaded_per_stmt":    {float64(sheet.BytesLoaded) / exe, "bytes"},
		"blockstore.spill_writes_per_stmt":    {float64(sheet.SpillWrites) / exe, "count"},
		"blockstore.coalesced_frac":           {ratio(sheet.CoalescedBlocks, sheet.BlockEvictions), "ratio"},
		"blockstore.prefetch_hit_ratio":       {ratio(sheet.PrefetchHits, sheet.BlockLoads), "ratio"},
		"catalog.apply_us_per_write":          {us("exec.ExecStatement", writes), "us"},
		"mvcc.publish_us_per_write":           {us("catalog.PublishAll", writes), "us"},
		"wal.append_commit_us":                {(us("wal.Append", writes) + us("wal.Commit", writes)), "us"},
		"wal.fsyncs_per_write":                {float64(dw(func(w sqlsheet.WALCounters) int64 { return w.Fsyncs })) / writes, "count"},
		"wal.coalesced_frac":                  {float64(dw(func(w sqlsheet.WALCounters) int64 { return w.CoalescedSyncs })) / writes, "ratio"},
		"wal.bytes_per_user_byte":             {ratio(dw(func(w sqlsheet.WALCounters) int64 { return w.BytesWritten }), a.userBytes), "ratio"},
		"wal.checkpoints":                     {float64(a.checkpoints), "count"},
		"wal.checkpoint_stall_ms":             {stall, "ms"},
		"go.gc_cpu_frac":                      {gcFrac(base), "ratio"},
		"go.alloc_bytes_per_op":               {float64(base.rt1.allocBytes-base.rt0.allocBytes) / float64(max(base.ops(), 1)), "bytes"},
		"trace.overhead_ms":                   {m.readPct(0.5) - base.readPct(0.5), "ms"},
	}
	return out
}

func gcFrac(m *measures) float64 {
	tot := m.rt1.totCPU - m.rt0.totCPU
	if tot <= 0 {
		return 0
	}
	return (m.rt1.gcCPU - m.rt0.gcCPU) / tot
}

// writeSpans writes every span as one JSON object per line.
func (tr *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (tr *tracer) close() {
	tr.log.Close()
	os.RemoveAll(tr.dir)
}
