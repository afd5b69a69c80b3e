package main

import (
	"bytes"
	"strings"
	"testing"

	"hyperprov/internal/db"
	"hyperprov/internal/workload"
)

// tinyRun runs one round of a workload at the tiny size.
func tinyRun(t *testing.T, name string, trace bool, corrupt *corruptions) *result {
	t.Helper()
	c := config{setup: workloads[name], seed: 3, seconds: 0, trace: trace, tiny: true, dir: t.TempDir(), corrupt: corrupt}
	res, err := run(c)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res
}

// TestWorkloadsTiny runs every workload at the tiny size, untraced and
// traced, and expects every check to pass.
func TestWorkloadsTiny(t *testing.T) {
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			res := tinyRun(t, name, trace, nil)
			if len(res.problems) > 0 {
				t.Errorf("%s (trace %v): %v", name, trace, res.problems)
			}
			if res.attempted() == 0 || res.acked == 0 {
				t.Errorf("%s: nothing attempted", name)
			}
			for k, m := range res.metrics(trace) {
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v", name, k, m.Value)
				}
			}
		}
	}
}

// TestTPCCFaultIsCounted: every Payment of the timed phase is rejected
// for its exponent-form float, and nothing else fails.
func TestTPCCFaultIsCounted(t *testing.T) {
	res := tinyRun(t, "tpcc-oltp", false, nil)
	ing := res.op("ingest")
	payments := strings.Count(tpccCycle, "P")
	if want := ing.attempted * payments / len(tpccCycle); ing.failed != want {
		t.Errorf("failed ingests = %d of %d, want %d (the Payments)", ing.failed, ing.attempted, want)
	}
	if res.failed() != ing.failed {
		t.Errorf("%d failures outside ingest", res.failed()-ing.failed)
	}
}

// The corruption tests feed each check one wrong answer; each must be
// rejected, which shows that no check passes vacuously.

func TestRejectsFlippedWhatifTuple(t *testing.T) {
	res := tinyRun(t, "synthetic-whatif", false, &corruptions{whatif: func(b []byte) []byte {
		// Flip the last digit of the first tuple's id.
		i := bytes.Index(b, []byte(`"tuples":[[`)) + len(`"tuples":[[`)
		for b[i+1] >= '0' && b[i+1] <= '9' {
			i++
		}
		b = append([]byte(nil), b...)
		b[i] = '0' + (b[i]-'0'+1)%10
		return b
	}})
	expectProblem(t, res, "what-if")
}

func TestRejectsMissingDeltaFrame(t *testing.T) {
	for _, name := range []string{"synthetic-whatif", "pinned-push"} {
		res := tinyRun(t, name, false, &corruptions{frames: func(fs []frameRec) []frameRec {
			for i, f := range fs {
				if f.typ == "delta" {
					return append(fs[:i:i], fs[i+1:]...)
				}
			}
			t.Fatalf("%s: no delta frame to drop", name)
			return fs
		}})
		expectProblem(t, res, "subscription")
	}
}

func TestRejectsTruncatedSnapshot(t *testing.T) {
	for _, name := range []string{"tpcc-oltp", "synthetic-whatif"} {
		res := tinyRun(t, name, false, &corruptions{snapshot: func(b []byte) []byte { return b[:len(b)-1] }})
		expectProblem(t, res, "snapshot")
	}
}

func expectProblem(t *testing.T, res *result, want string) {
	t.Helper()
	for _, p := range res.problems {
		if strings.Contains(p, want) {
			return
		}
	}
	t.Errorf("corruption not rejected: no %q problem in %v", want, res.problems)
}

// TestAnswerDigest: a decoded answer fingerprints like the typed
// tuples it lists, and a wrong numTuples is rejected.
func TestAnswerDigest(t *testing.T) {
	s := workload.Schema()
	body := []byte(`{"numTuples":3,"relations":{"R":{"attrs":["id","grp","cat","val","pad"],` +
		`"tuples":[[1,2,"a\"b",3,"x"],[-4,0,"é",5,""],[6,7,"c",8,"y"]]}}}`)
	got, err := answerDigest(s, body)
	if err != nil {
		t.Fatal(err)
	}
	var want digest
	for _, tu := range []db.Tuple{
		{db.I(1), db.I(2), db.S(`a"b`), db.I(3), db.S("x")},
		{db.I(-4), db.I(0), db.S("é"), db.I(5), db.S("")},
		{db.I(6), db.I(7), db.S("c"), db.I(8), db.S("y")},
	} {
		want.add(tupleKey("R", tu))
	}
	if got != want {
		t.Errorf("answer %v, typed tuples %v", got, want)
	}
	if _, err := answerDigest(s, bytes.Replace(body, []byte(`"numTuples":3`), []byte(`"numTuples":4`), 1)); err == nil {
		t.Error("a wrong numTuples was accepted")
	}
}

// TestPoolRestriction backs the synthetic-whatif oracle's shortcut: the
// pool replay plus the untouched rows equals the whole-table replay.
func TestPoolRestriction(t *testing.T) {
	c := &config{tiny: true}
	r, err := setupSynthetic(c, 5, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.closeAll()
	full, _, err := workload.Generate(syntheticConfig(true, 5))
	if err != nil {
		t.Fatal(err)
	}
	pool := r.initial.Clone()
	for _, d := range []*db.Database{full, pool} {
		if err := d.ApplyAll(r.txns); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := dbDigest(pool).plus(r.outside), dbDigest(full); got != want {
		t.Errorf("pool replay %v, whole-table replay %v", got, want)
	}
}
