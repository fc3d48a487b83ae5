// Command perfbench is the repository's end-to-end benchmark. Each workload
// drives the served path from one process: internal/client connections
// over loopback to an in-process internal/server wrapping a sqlsheet.DB
// with the write-ahead log on (fsync=group). All data and SQL come from the
// seed; every answer is checked against a plain-Go computation before it
// counts.
//
//	perfbench --workload dashboard --seed 1 --seconds 10 --trace 0
//	perfbench compare a.json b.json
//
// The last line of standard output is the result object; the full record
// (environment stamp included) is also written under .bench_build/perfbench.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the full result written to disk: the result plus what it was
// measured on and anything that went wrong.
type record struct {
	Env      envStamp          `json:"env"`
	Workload string            `json:"workload"`
	Trace    bool              `json:"trace"`
	Result   result            `json:"result"`
	Inputs   inputs            `json:"inputs"`
	Detail   map[string]metric `json:"detail,omitempty"`
	Errors   []string          `json:"errors,omitempty"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compare(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(1)
		}
		return
	}
	name := flag.String("workload", "", "workload: dashboard, adhoc, ingest or spill")
	seed := flag.Int64("seed", 1, "seed for all generated data and SQL")
	seconds := flag.Int("seconds", 10, "length of the measured window")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	out := filepath.Join(".bench_build", "perfbench")
	rec, err := run(w, *seed, time.Duration(*seconds)*time.Second, *traceFlag == 1, out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, e := range rec.Errors {
		fmt.Fprintln(os.Stderr, "perfbench:", e)
	}
	env, _ := json.Marshal(rec.Env)
	fmt.Printf("env %s\n", env)
	for _, k := range sortedKeys(rec.Detail) {
		fmt.Printf("detail %s = %.6g %s\n", k, rec.Detail[k].Value, rec.Detail[k].Unit)
	}
	file := filepath.Join(out, fmt.Sprintf("result-%s-seed%d-trace%d.json", w.name, *seed, *traceFlag))
	if b, err := json.MarshalIndent(rec, "", "  "); err == nil {
		if err := os.WriteFile(file, b, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: write record:", err)
		}
	}
	line, _ := json.Marshal(rec.Result)
	fmt.Println(string(line))
}

// warmup is run, checked but not measured, before the window opens, so the
// caches are filled and lazy set-up has finished.
const warmup = 1500 * time.Millisecond

// setups is how many times a run loads its data, and recoveries how many
// times it reopens the log; setup_s and recovery_s are their medians.
const (
	setups     = 7
	recoveries = 3
)

func run(w *workload, seed int64, window time.Duration, traced bool, out string) (*record, error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(out, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	d := w.data(rand.New(rand.NewSource(seed)))
	cfg := w.cfg(d)
	cfg.SpillDir = filepath.Join(tmp, "spill")
	if err := os.MkdirAll(cfg.SpillDir, 0o755); err != nil {
		return nil, err
	}
	ls := d.load()
	streams := w.streams(sessionRNG(seed, w.name), d)

	// Set up several times; keep the last instance for the run.
	var setupTimes []float64
	var inst *instance
	for i := 0; i < setups; i++ {
		if inst != nil {
			inst.stop()
			os.RemoveAll(inst.walDir)
		}
		dir := filepath.Join(tmp, fmt.Sprintf("wal-%d", i))
		runtime.GC()
		start := time.Now()
		inst, err = startInstance(ls, cfg, dir, len(streams))
		if err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
	}
	ls = loadSet{}

	rec := &record{Env: stampEnv(seed), Workload: w.name, Trace: traced,
		Inputs: inputs{d.hash(), opLogHash(w, seed, opLogPrefix)}}
	st := newStore(d)
	sess := make([]*session, len(streams))
	for i := range sess {
		sess[i] = &session{cl: inst.clients[i], next: streams[i], st: st, think: w.think,
			ver: map[string]int{}, cache: map[string]cachedExp{}}
	}

	fail := func(what string, stats []*sessionStats) int {
		n := 0
		for _, s := range stats {
			n += s.failed
			if s.firstErr != "" {
				rec.Errors = append(rec.Errors, what+": "+s.firstErr)
			}
		}
		return n
	}
	warmFailed := fail("warm-up", runSessions(sess, time.Now().Add(warmup)))

	var tr *tracer
	var stats []*sessionStats
	var m measures
	if traced {
		// An untraced third, then the traced rest: the difference of the two
		// is the tracing overhead.
		third := window / 3
		base := measureWindow(sess, third)
		tr, err = newTracer(d, cfg, inst, filepath.Join(tmp, "trace"))
		if err != nil {
			inst.stop()
			return nil, err
		}
		for _, s := range sess {
			s.tracer = tr
		}
		m = measureWindow(sess, window-third)
		m.base = &base
		tr.finish()
		stats = append(base.stats, m.stats...)
	} else {
		m = measureWindow(sess, window)
		stats = m.stats
	}
	failed := fail("run", stats)

	walBytes, err := dirBytes(inst.walDir)
	if err != nil {
		inst.stop()
		return nil, err
	}
	for _, s := range sess {
		if err := selfTest(s.last); err != nil {
			rec.Errors = append(rec.Errors, err.Error())
		}
	}
	if err := inst.stop(); err != nil {
		rec.Errors = append(rec.Errors, "close: "+err.Error())
	}
	walDir := inst.walDir
	inst = nil
	runtime.GC()

	// Recovery: reopen copies of the log exactly as the run left it.
	var recTimes []float64
	for i := 0; i < recoveries; i++ {
		db, dur, err := recoverCopy(walDir, filepath.Join(tmp, fmt.Sprintf("recover-%d", i)), cfg)
		if err != nil {
			return nil, err
		}
		recTimes = append(recTimes, dur.Seconds())
		if i == 0 {
			if err := checkRecovered(db, d, st); err != nil {
				rec.Errors = append(rec.Errors, "recovery: "+err.Error())
			}
		}
		db.Close()
		os.RemoveAll(filepath.Join(tmp, fmt.Sprintf("recover-%d", i)))
		runtime.GC()
	}

	attempted := 0
	for _, s := range stats {
		attempted += s.ops
	}
	res := result{Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	detail := map[string]metric{
		"failed_ops_frac":  {float64(failed) / float64(max(attempted, 1)), "fraction"},
		"warmup_failed":    {float64(warmFailed), "count"},
		"memory_budget_mb": {float64(cfg.MemoryBudget) / (1 << 20), "MiB"},
		"user_mb":          {float64(d.userBytes()) / (1 << 20), "MiB"},
		"reads":            {float64(m.reads()), "count"},
		"writes":           {float64(m.writes()), "count"},
		"read_p99_ms":      {m.readPct(0.99), "ms"},
		"write_p95_ms":     {m.writePct(0.95), "ms"},
		"write_p99_ms":     {m.writePct(0.99), "ms"},
	}
	if traced {
		for k, v := range tr.metrics(&m) {
			res.Metrics[k] = v
		}
		if err := tr.writeSpans(filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, seed))); err != nil {
			rec.Errors = append(rec.Errors, "spans: "+err.Error())
		}
		rec.Errors = append(rec.Errors, tr.errors()...)
		tr.close()
	} else {
		userNow := d.userBytes() + st.reportBytes
		res.Metrics = map[string]metric{
			"read_p50_ms":              {m.readPct(0.50), "ms"},
			"read_p95_ms":              {m.readPct(0.95), "ms"},
			"write_p50_ms":             {m.writePct(0.50), "ms"},
			"ops_per_s":                {m.opsPerSec(), "1/s"},
			"setup_s":                  {median(setupTimes), "s"},
			"peak_heap_mb":             {float64(m.peakHeap) / (1 << 20), "MiB"},
			"disk_bytes_per_user_byte": {float64(walBytes) / float64(userNow), "ratio"},
			"recovery_s":               {median(recTimes), "s"},
		}
	}
	kinds := map[string][]time.Duration{}
	for _, s := range stats {
		for k, l := range s.byKind {
			kinds[k] = append(kinds[k], l...)
		}
	}
	for k, l := range kinds {
		detail["kind."+k+".n"] = metric{float64(len(l)), "count"}
		detail["kind."+k+".p50_ms"] = metric{percentile(l, 0.5), "ms"}
		detail["kind."+k+".p99_ms"] = metric{percentile(l, 0.99), "ms"}
	}
	rec.Detail = detail
	res.Correct = failed == 0 && warmFailed == 0 && len(rec.Errors) == 0
	rec.Result = res
	return rec, nil
}

// measures is what one measured window observed.
type measures struct {
	stats    []*sessionStats
	peakHeap uint64
	rt0, rt1 runtimeCounters
	base     *measures
}

func measureWindow(sess []*session, d time.Duration) measures {
	var m measures
	runtime.GC()
	m.rt0 = readRuntime()
	hs := startHeapSampler()
	m.stats = runSessions(sess, time.Now().Add(d))
	m.peakHeap = hs.finish()
	m.rt1 = readRuntime()
	return m
}

func (m *measures) lats(write bool) []time.Duration {
	var out []time.Duration
	for _, s := range m.stats {
		if write {
			out = append(out, s.writeLat...)
		} else {
			out = append(out, s.readLat...)
		}
	}
	return out
}

func (m *measures) readPct(q float64) float64  { return percentile(m.lats(false), q) }
func (m *measures) writePct(q float64) float64 { return percentile(m.lats(true), q) }
func (m *measures) reads() int                 { return len(m.lats(false)) }
func (m *measures) writes() int                { return len(m.lats(true)) }

func (m *measures) ops() int {
	n := 0
	for _, s := range m.stats {
		n += s.ops
	}
	return n
}

// opsPerSec sums each session's completed operations per second spent
// waiting for replies, so the benchmark's own answer checks (run between
// operations) do not count against the system.
func (m *measures) opsPerSec() float64 {
	r := 0.0
	for _, s := range m.stats {
		if s.busy > 0 {
			r += float64(s.ops) / s.busy.Seconds()
		}
	}
	return r
}

func sortedKeys(m map[string]metric) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// inputs fingerprints what the seed generated: the loaded tables and the
// first opLogPrefix operations of every session.
type inputs struct {
	DataSHA256  string `json:"data_sha256"`
	OpLogSHA256 string `json:"oplog_sha256"`
}

const opLogPrefix = 1000

// envStamp records what a result was measured on.
type envStamp struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Seed       int64  `json:"seed"`
}

func stampEnv(seed int64) envStamp {
	return envStamp{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Seed:       seed,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// compare prints each metric of two result records side by side. Records
// measured with different core counts or Go versions are refused: their
// numbers are not comparable.
func compare(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: perfbench compare <a.json> <b.json>")
	}
	var recs [2]record
	for i, f := range args {
		b, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, &recs[i]); err != nil {
			return fmt.Errorf("%s: %w", f, err)
		}
	}
	a, b := recs[0], recs[1]
	if a.Env.NProc != b.Env.NProc || a.Env.GOMAXPROCS != b.Env.GOMAXPROCS {
		return fmt.Errorf("core counts differ (nproc %d vs %d, GOMAXPROCS %d vs %d)",
			a.Env.NProc, b.Env.NProc, a.Env.GOMAXPROCS, b.Env.GOMAXPROCS)
	}
	if a.Env.GoVersion != b.Env.GoVersion {
		return fmt.Errorf("go versions differ (%s vs %s)", a.Env.GoVersion, b.Env.GoVersion)
	}
	if a.Workload != b.Workload || a.Trace != b.Trace {
		return fmt.Errorf("different workloads or trace modes")
	}
	for _, k := range sortedKeys(a.Result.Metrics) {
		va, vb := a.Result.Metrics[k], b.Result.Metrics[k]
		ratio := 0.0
		if va.Value != 0 {
			ratio = vb.Value / va.Value
		}
		fmt.Printf("%-36s %14.6g %14.6g %8.3fx %s\n", k, va.Value, vb.Value, ratio, va.Unit)
	}
	return nil
}
