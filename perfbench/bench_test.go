package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"sqlsheet"
)

// TestDeterminism: a seed fixes the generated tables and the operation log
// of every workload; another seed changes both.
func TestDeterminism(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			data := func(seed int64) string { return w.data(rand.New(rand.NewSource(seed))).hash() }
			if a, b := data(7), data(7); a != b {
				t.Errorf("same seed, different data: %s vs %s", a, b)
			}
			if a, b := data(7), data(8); a == b {
				t.Errorf("different seeds, same data %s", a)
			}
			if a, b := opLogHash(w, 7, 300), opLogHash(w, 7, 300); a != b {
				t.Errorf("same seed, different operation log")
			}
			if a, b := opLogHash(w, 7, 300), opLogHash(w, 8, 300); a == b {
				t.Errorf("different seeds, same operation log")
			}
		})
	}
}

// TestCheckerCountsPerturbedAnswer serves real reads through the client and
// server, checks they pass, and confirms that a perturbed copy of each
// answer is counted as a failure.
func TestCheckerCountsPerturbedAnswer(t *testing.T) {
	w := findWorkload("dashboard")
	d := w.data(rand.New(rand.NewSource(3)))
	inst, err := startInstance(d.load(), sqlsheet.Config{Workers: 1}, filepath.Join(t.TempDir(), "wal"), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.stop()
	st := newStore(d)
	s := &session{cl: inst.clients[0], st: st, ver: map[string]int{}, cache: map[string]cachedExp{}}
	h := d.h
	kids := h.children[0]
	ops := []stmt{
		priorPeriod("r0", h.namesOf(h.subtree(kids[0])), true, 20),
		shareOfParent([]string{"r1"}, nil, 4, 6, "", nil),
		forecastStmt("r0", h.namesOf(h.subtree(kids[1])), d.months, 30),
		runningTotal([]string{"r2"}, [2]string{}, h.namesOf(h.subtree(kids[2])), 1, 12, "", nil),
		movingAvg([]string{"r3"}, h.namesOf(h.subtree(kids[3])), 5, 30, 3, "", nil),
		yearAgo([]string{"r0", "r1"}, nil, 1, 36, 500),
		groupSheet([]string{"r0", "r2"}, 2, 3, 20, 10),
		runningOverProductsStmt("r1", h.names[5], h.names[40], 2, 3, 100),
	}
	for _, op := range ops {
		var stats sessionStats
		res, err := s.cl.Query(op.sql)
		if !s.settle(op, res, err, 0, &stats) || stats.failed != 0 {
			t.Fatalf("correct answer counted as failed: %s\n%s", stats.firstErr, op.sql)
		}
		if err := selfTest(s.last); err != nil {
			t.Errorf("%v\n%s", err, op.sql)
		}
		bad := perturb(res)
		var badStats sessionStats
		if err := checkRows(s.expect(op), bad); err != nil {
			badStats.fail(err, op.sql)
		}
		if badStats.failed != 1 {
			t.Errorf("perturbed answer accepted: %s", op.sql)
		}
	}
	// A write's model update must make later checks exact.
	up := updateCell("r0", h.names[kids[0]], 36, 12.5)
	var stats sessionStats
	res, err := s.cl.Query(up.sql)
	if !s.settle(up, res, err, 0, &stats) {
		t.Fatalf("write failed: %s", stats.firstErr)
	}
	res, err = s.cl.Query(ops[0].sql)
	if !s.settle(ops[0], res, err, 0, &stats) {
		t.Fatalf("read after write: %s", stats.firstErr)
	}
}

// TestCompareRefusesOtherCoreCounts: results stamped with different core
// counts are not comparable, so compare must fail rather than print them.
func TestCompareRefusesOtherCoreCounts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, nproc int) string {
		rec := record{Env: envStamp{NProc: nproc, GOMAXPROCS: nproc, GoVersion: "go"}, Workload: "adhoc",
			Result: result{Correct: true, Attempted: 1, Metrics: map[string]metric{"ops_per_s": {1, "1/s"}}}}
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, b, c := write("a.json", 2), write("b.json", 2), write("c.json", 1)
	if err := compare([]string{a, b}); err != nil {
		t.Errorf("same core count refused: %v", err)
	}
	if err := compare([]string{a, c}); err == nil {
		t.Error("different core counts compared")
	}
}
