package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"sqlsheet"
	"sqlsheet/internal/blockstore"
	"sqlsheet/internal/client"
	"sqlsheet/internal/server"
	"sqlsheet/internal/types"
	"sqlsheet/internal/wire"
)

// workload describes one traffic mix: its data, engine options and the
// operation stream of each closed-loop session.
type workload struct {
	name string
	cfg  func(d *dataset) sqlsheet.Config
	data func(rng *rand.Rand) *dataset
	// streams builds one closed-loop session per stream.
	streams func(rng func(i int) *rand.Rand, d *dataset) []opStream
	// think is the pause a session takes after each read.
	think time.Duration
}

var workloads = []*workload{
	{
		name: "dashboard",
		cfg:  func(*dataset) sqlsheet.Config { return sqlsheet.Config{Workers: 1} },
		data: func(rng *rand.Rand) *dataset {
			h := newHier([]int{4, 4, 4})
			rs := regionNames(4)
			return &dataset{h: h, regions: rs, months: 36, tmax: 36 + 240, sales: genCube(rng, rs, h, 36)}
		},
		streams: func(rng func(int) *rand.Rand, d *dataset) []opStream {
			return []opStream{
				dashboardStream(rng(0), d, d.regions[:2]),
				dashboardStream(rng(1), d, d.regions[2:]),
			}
		},
	},
	{
		name: "adhoc",
		cfg: func(*dataset) sqlsheet.Config {
			return sqlsheet.Config{Workers: 0, Parallel: runtime.NumCPU()}
		},
		data: func(rng *rand.Rand) *dataset {
			h := newHier([]int{6, 6, 6})
			rs := regionNames(8)
			return &dataset{h: h, regions: rs, months: 72, tmax: 72, sales: genCube(rng, rs, h, 72)}
		},
		streams: func(rng func(int) *rand.Rand, d *dataset) []opStream {
			return []opStream{withReports(adhocStream(rng(0), d))}
		},
	},
	{
		name: "ingest", think: ingestThink,
		cfg: func(*dataset) sqlsheet.Config { return sqlsheet.Config{Workers: 1} },
		data: func(rng *rand.Rand) *dataset {
			h := newHier([]int{10, 10, 10})
			rs := regionNames(2)
			return &dataset{h: h, regions: rs, months: 24, tmax: 24, sales: genCube(rng, rs, h, 24)}
		},
		streams: func(rng func(int) *rand.Rand, d *dataset) []opStream {
			return []opStream{
				ingestStream(rng(0), d, d.regions[0], ingestChunk),
				ingestStream(rng(1), d, d.regions[1], ingestChunk),
			}
		},
	},
	{
		name: "spill",
		cfg: func(d *dataset) sqlsheet.Config {
			return sqlsheet.Config{Workers: 1, MemoryBudget: spillBudget(d)}
		},
		data: func(rng *rand.Rand) *dataset {
			h := newHier([]int{5, 5, 5, 5, 5})
			rs := regionNames(1)
			return &dataset{h: h, regions: rs, months: 12, tmax: 12, sales: genCube(rng, rs, h, 12)}
		},
		streams: func(rng func(int) *rand.Rand, d *dataset) []opStream {
			return []opStream{withReports(spillStream(rng(0), d))}
		},
	},
}

// ingestChunk is the number of rows in one ingest INSERT.
const ingestChunk = 250

// ingestThink is the ingest loaders' pause after each read-back: it keeps
// the rows ingested per run, and with them the table and log sizes the
// run ends with, nearly independent of how fast the system is.
const ingestThink = 20 * time.Millisecond

// spillBudget is a quarter of the largest S5 partition's resident bytes,
// measured the way the chunk store accounts them (working-schema rows:
// PBY r, t; DBY p; MEA s, share).
func spillBudget(d *dataset) int64 {
	var max int64
	for r, ps := range d.sales.data {
		per := map[int]int64{}
		for p, ts := range ps {
			for t, s := range ts {
				per[t] += blockstore.RowBytes(types.Row{types.NewString(r), types.NewInt(int64(t)),
					types.NewString(p), types.NewFloat(s), types.NewInt(0)})
			}
		}
		for _, b := range per {
			if b > max {
				max = b
			}
		}
	}
	return max / 4
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// sessionRNG derives an independent, reproducible generator per session.
func sessionRNG(seed int64, name string) func(int) *rand.Rand {
	var h int64
	for _, c := range name {
		h = h*31 + int64(c)
	}
	return func(i int) *rand.Rand { return rand.New(rand.NewSource(seed*1_000_003 + h*7919 + int64(i))) }
}

// instance is one served database: the DB with its WAL, the in-process
// server, and one client connection per session.
type instance struct {
	db      *sqlsheet.DB
	srv     *server.Server
	walDir  string
	clients []*client.Client
}

// loadSet is the pre-generated input of a set-up, so generation stays out
// of the timed part.
type loadSet struct {
	sales, products, times [][]any
}

func (d *dataset) load() loadSet {
	return loadSet{sales: d.salesRows(), products: d.productRows(), times: d.timeRows()}
}

const loadBatch = 4096

// startInstance loads the tables through DB.Insert with the WAL on and
// serves them; it returns once every session's connection answered a Ping.
func startInstance(ls loadSet, cfg sqlsheet.Config, walDir string, sessions int) (*instance, error) {
	db := sqlsheet.Open()
	db.Configure(cfg)
	if err := db.EnableWAL(walDir, sqlsheet.SyncGroup); err != nil {
		return nil, fmt.Errorf("enable wal: %w", err)
	}
	inst := &instance{db: db, walDir: walDir}
	tables := []struct {
		name string
		cols []sqlsheet.Column
		rows [][]any
	}{
		{"sales", []sqlsheet.Column{sqlsheet.ColString("r"), sqlsheet.ColString("p"), sqlsheet.ColInt("t"), sqlsheet.ColFloat("s")}, ls.sales},
		{"product_dt", []sqlsheet.Column{sqlsheet.ColString("p"), sqlsheet.ColString("par"), sqlsheet.ColInt("lvl")}, ls.products},
		{"time_dt", []sqlsheet.Column{sqlsheet.ColInt("t"), sqlsheet.ColInt("t_prev"), sqlsheet.ColInt("t_yago")}, ls.times},
		{"reports", []sqlsheet.Column{sqlsheet.ColInt("id"), sqlsheet.ColString("kind")}, nil},
	}
	for _, t := range tables {
		if err := db.CreateTable(t.name, t.cols...); err != nil {
			inst.stop()
			return nil, fmt.Errorf("create %s: %w", t.name, err)
		}
		for i := 0; i < len(t.rows); i += loadBatch {
			end := min(i+loadBatch, len(t.rows))
			if err := db.Insert(t.name, t.rows[i:end]...); err != nil {
				inst.stop()
				return nil, fmt.Errorf("load %s: %w", t.name, err)
			}
		}
	}
	inst.srv = server.New(db, server.Config{MetricsAddr: "127.0.0.1:0"})
	if err := inst.srv.Start(); err != nil {
		inst.srv = nil
		inst.stop()
		return nil, fmt.Errorf("start server: %w", err)
	}
	for i := 0; i < sessions; i++ {
		cl, err := client.Dial(inst.srv.Addr().String())
		if err != nil {
			inst.stop()
			return nil, fmt.Errorf("dial: %w", err)
		}
		inst.clients = append(inst.clients, cl)
		if err := cl.Ping(); err != nil {
			inst.stop()
			return nil, fmt.Errorf("ping: %w", err)
		}
	}
	return inst, nil
}

// stop closes the sessions, drains the server and closes the WAL without a
// checkpoint, leaving the log directory as the run wrote it.
func (inst *instance) stop() error {
	for _, cl := range inst.clients {
		cl.Close()
	}
	inst.clients = nil
	if inst.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		inst.srv.Shutdown(ctx)
		cancel()
		inst.srv = nil
	}
	return inst.db.Close()
}

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		fi, err := e.Info()
		if err != nil {
			return 0, err
		}
		if fi.Mode().IsRegular() {
			n += fi.Size()
		}
	}
	return n, nil
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// recoverCopy reopens a copy of the WAL directory in a fresh DB and returns
// how long the reopen took.
func recoverCopy(walDir, copyTo string, cfg sqlsheet.Config) (*sqlsheet.DB, time.Duration, error) {
	if err := copyDir(walDir, copyTo); err != nil {
		return nil, 0, fmt.Errorf("copy wal: %w", err)
	}
	start := time.Now()
	db := sqlsheet.Open()
	db.Configure(cfg)
	if err := db.EnableWAL(copyTo, sqlsheet.SyncGroup); err != nil {
		return nil, 0, fmt.Errorf("recover: %w", err)
	}
	return db, time.Since(start), nil
}

// checkRecovered compares every recovered table with the model: every
// acknowledged write must have survived, and nothing else may appear.
func checkRecovered(db *sqlsheet.DB, d *dataset, st *store) error {
	res, err := db.Query("SELECT r, p, t, s FROM sales")
	if err != nil {
		return err
	}
	want := newExpected(3)
	for r, ps := range st.c.data {
		for p, ts := range ps {
			for t, s := range ts {
				want.rows[rpKey(r, p, t)] = []nf{some(s)}
			}
		}
	}
	got := &wire.Result{Cols: res.Columns}
	for _, row := range res.Rows {
		got.Rows = append(got.Rows, []types.Value(row))
	}
	if err := checkRows(want, got); err != nil {
		return fmt.Errorf("sales: %w", err)
	}
	if n := db.TableRows("product_dt"); n != len(d.h.names) {
		return fmt.Errorf("product_dt has %d rows, want %d", n, len(d.h.names))
	}
	if n := db.TableRows("time_dt"); n != d.tmax {
		return fmt.Errorf("time_dt has %d rows, want %d", n, d.tmax)
	}
	res, err = db.Query("SELECT id, kind FROM reports")
	if err != nil {
		return err
	}
	if len(res.Rows) != len(st.reports) {
		return fmt.Errorf("reports has %d rows, want %d", len(res.Rows), len(st.reports))
	}
	for _, row := range res.Rows {
		if st.reports[row[0].Int()] != row[1].String() {
			return fmt.Errorf("reports row %v not acknowledged", row)
		}
	}
	return nil
}

// heapSampler records the peak live-heap size while it runs.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) finish() uint64 {
	close(h.stop)
	<-h.done
	return h.peak
}

// runtimeCounters reads the Go runtime's cumulative allocation and CPU
// accounting.
type runtimeCounters struct {
	allocBytes    uint64
	gcCPU, totCPU float64
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeCounters{s[0].Value.Uint64(), s[1].Value.Float64(), s[2].Value.Float64()}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// percentile is the nearest-rank percentile of durations, in ms.
func percentile(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.999999) - 1
	i = max(0, min(i, len(s)-1))
	return float64(s[i]) / float64(time.Millisecond)
}

// sessionStats accumulates one session's measured operations.
type sessionStats struct {
	readLat, writeLat []time.Duration
	// byKind splits the latencies by statement template, for diagnosis.
	byKind      map[string][]time.Duration
	busy        time.Duration
	ops, failed int
	firstErr    string
}

func (s *sessionStats) fail(err error, sql string) {
	s.failed++
	if s.firstErr == "" {
		if len(sql) > 200 {
			sql = sql[:200] + "..."
		}
		s.firstErr = fmt.Sprintf("%v [%s]", err, sql)
	}
}

// session is one closed-loop client: it sends its next operation only
// after the previous reply arrived and was checked.
type session struct {
	cl     *client.Client
	next   opStream
	st     *store
	ver    map[string]int
	cache  map[string]cachedExp
	last   lastRead
	tracer *tracer
	// think is the pause after each read.
	think time.Duration
}

type cachedExp struct {
	ver int
	e   expected
}

// lastRead keeps the most recent checked read for the end-of-run
// self-test of the checker.
type lastRead struct {
	e   expected
	res *wire.Result
}

func (s *session) verOf(regions []string) int {
	v := 0
	for _, r := range regions {
		v += s.ver[r]
	}
	return v
}

func (s *session) expect(op stmt) expected {
	if op.id != "" {
		if c, ok := s.cache[op.id]; ok && c.ver == s.verOf(op.regions) {
			return c.e
		}
	}
	s.st.mu.RLock()
	e := op.expect(s.st)
	s.st.mu.RUnlock()
	if op.id != "" {
		s.cache[op.id] = cachedExp{s.verOf(op.regions), e}
	}
	return e
}

// settle records an operation's latency and checks its answer (untimed),
// applying an acknowledged write to the model. It reports success.
func (s *session) settle(op stmt, res *wire.Result, err error, lat time.Duration, stats *sessionStats) bool {
	stats.ops++
	stats.busy += lat
	if op.write {
		stats.writeLat = append(stats.writeLat, lat)
	} else {
		stats.readLat = append(stats.readLat, lat)
	}
	if stats.byKind == nil {
		stats.byKind = map[string][]time.Duration{}
	}
	stats.byKind[op.kind] = append(stats.byKind[op.kind], lat)
	if err != nil {
		stats.fail(err, op.sql)
		return false
	}
	if op.write {
		if err := checkAffected(res, op.affected); err != nil {
			stats.fail(err, op.sql)
			return false
		}
		s.st.mu.Lock()
		op.apply(s.st)
		s.st.mu.Unlock()
		for _, r := range op.regions {
			s.ver[r]++
		}
		return true
	}
	e := s.expect(op)
	if err := checkRows(e, res); err != nil {
		stats.fail(err, op.sql)
		return false
	}
	s.last = lastRead{e, res}
	return true
}

// loop runs operations until the deadline.
func (s *session) loop(deadline time.Time, stats *sessionStats) {
	for time.Now().Before(deadline) {
		op := s.next()
		if s.tracer != nil {
			s.tracer.do(s, op, stats)
		} else {
			start := time.Now()
			res, err := s.cl.Query(op.sql)
			s.settle(op, res, err, time.Since(start), stats)
		}
		if s.think > 0 && !op.write {
			time.Sleep(s.think)
		}
	}
}

// runSessions runs every session until the deadline and waits for them.
func runSessions(sess []*session, deadline time.Time) []*sessionStats {
	stats := make([]*sessionStats, len(sess))
	var wg sync.WaitGroup
	for i, s := range sess {
		stats[i] = &sessionStats{}
		wg.Add(1)
		go func(s *session, st *sessionStats) {
			defer wg.Done()
			s.loop(deadline, st)
		}(s, stats[i])
	}
	wg.Wait()
	return stats
}

// selfTest perturbs a served answer the checker just accepted and confirms
// the perturbed copy is counted as a failure.
func selfTest(lr lastRead) error {
	if lr.res == nil {
		return fmt.Errorf("self-test: no checked read to perturb")
	}
	bad := perturb(lr.res)
	var stats sessionStats
	if err := checkRows(lr.e, bad); err != nil {
		stats.fail(err, "self-test")
	}
	if stats.failed != 1 {
		return fmt.Errorf("self-test: perturbed answer was accepted")
	}
	return nil
}

// perturb copies a result and nudges its first numeric measure by one part
// in a million (far beyond the 1e-9 tolerance); a result without one loses
// its last row instead.
func perturb(res *wire.Result) *wire.Result {
	out := &wire.Result{Cols: res.Cols, Kinds: res.Kinds}
	done := false
	for _, row := range res.Rows {
		cp := append([]types.Value(nil), row...)
		for j := len(cp) - 1; j >= 0 && !done; j-- {
			if cp[j].K == types.KindFloat && cp[j].F != 0 {
				cp[j] = types.NewFloat(cp[j].F * (1 + 1e-6))
				done = true
			}
		}
		out.Rows = append(out.Rows, cp)
	}
	if !done && len(out.Rows) > 0 {
		out.Rows = out.Rows[:len(out.Rows)-1]
	}
	return out
}
