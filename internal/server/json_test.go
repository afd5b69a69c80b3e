package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hyperprov/internal/core"
	"hyperprov/internal/db"
	"hyperprov/internal/engine"
	"hyperprov/internal/wal"
)

// The oracle: the encoding/json rendering of a materialized database
// that /v1/db and the what-ifs served before they streamed their
// answers. The streamed bodies must equal it byte for byte.

type legacyRelation struct {
	Attrs  []string `json:"attrs"`
	Tuples [][]any  `json:"tuples"`
}

type legacyDatabase struct {
	Relations map[string]legacyRelation `json:"relations"`
	NumTuples int                       `json:"numTuples"`
}

func valueJSON(v db.Value) any {
	switch v.Kind() {
	case db.KindString:
		return v.Str()
	case db.KindInt:
		return v.Int()
	case db.KindFloat:
		return v.Float()
	default:
		return v.String()
	}
}

func tupleJSON(t db.Tuple) []any {
	out := make([]any, len(t))
	for i, v := range t {
		out[i] = valueJSON(v)
	}
	return out
}

func legacyDBJSON(d *db.Database) legacyDatabase {
	out := legacyDatabase{Relations: make(map[string]legacyRelation), NumTuples: d.NumTuples()}
	for _, name := range d.Schema().Names() {
		rel := d.Schema().Relation(name)
		attrs := make([]string, len(rel.Attrs))
		for i, a := range rel.Attrs {
			attrs[i] = a.Name
		}
		rj := legacyRelation{Attrs: attrs, Tuples: [][]any{}}
		d.Instance(name).Each(func(t db.Tuple) {
			rj.Tuples = append(rj.Tuples, tupleJSON(t))
		})
		out.Relations[name] = rj
	}
	return out
}

// encodeLegacy renders v as writeJSON does.
func encodeLegacy(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func legacyBody(t *testing.T, d *db.Database) []byte {
	t.Helper()
	b, err := encodeLegacy(legacyDBJSON(d))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// checkAppendValue compares appendJSONValue with encoding/json on one
// value: equal bytes, or both refusing it.
func checkAppendValue(t *testing.T, v db.Value) {
	t.Helper()
	want, err := encodeLegacy(valueJSON(v))
	got, ok := appendJSONValue([]byte("prefix"), v)
	if err != nil {
		if ok {
			t.Fatalf("%#v: encoding/json refuses it (%v), appendJSONValue rendered %q", v.String(), err, got)
		}
		return
	}
	want = bytes.TrimSuffix(want, []byte("\n"))
	if !ok || string(got) != "prefix"+string(want) {
		t.Fatalf("%#v: appendJSONValue = %q (ok=%v), encoding/json = %q", v.String(), got, ok, want)
	}
}

var awkwardStrings = []string{
	"", "plain", "with space", `quo"te`, `back\slash`, "ctl\x00\x01\b\f\n\r\t\x1f",
	"del\x7f", "<html>&amp;", "naïve ünïcode", "日本語", "emoji 🙂",
	"bad\xffutf8", "\xc3", "\xed\xa0\x80", "sep\u2028\u2029", "�",
}

var awkwardFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, 1e-7, -1e-7, 9.99e-7, 1e20, 1e21, -1e21,
	1e22, 123456789.125, 1.00299333e+06, math.MaxFloat64, math.SmallestNonzeroFloat64,
	-2.5e-300, 5e-324, math.NaN(), math.Inf(1), math.Inf(-1),
}

var awkwardInts = []int64{0, 1, -1, math.MaxInt64, math.MinInt64, 1 << 53, -(1 << 53) - 1}

func TestAppendJSONMatchesEncoding(t *testing.T) {
	for _, s := range awkwardStrings {
		checkAppendValue(t, db.S(s))
	}
	for _, f := range awkwardFloats {
		checkAppendValue(t, db.F(f))
	}
	for _, n := range awkwardInts {
		checkAppendValue(t, db.I(n))
	}
	tup := db.Tuple{db.S(`a"b`), db.I(math.MinInt64), db.F(1e-7), db.S("x\u2028")}
	want, err := encodeLegacy(tupleJSON(tup))
	if err != nil {
		t.Fatal(err)
	}
	got, ok := appendJSONTuple(nil, tup)
	if !ok || string(got)+"\n" != string(want) {
		t.Fatalf("appendJSONTuple = %q (ok=%v), encoding/json = %q", got, ok, want)
	}
	if _, ok := appendJSONTuple(nil, db.Tuple{db.I(1), db.F(math.NaN())}); ok {
		t.Fatal("appendJSONTuple accepted a NaN")
	}
}

func FuzzAppendJSONValue(f *testing.F) {
	for i, s := range awkwardStrings {
		f.Add(s, awkwardInts[i%len(awkwardInts)], awkwardFloats[i%len(awkwardFloats)])
	}
	f.Fuzz(func(t *testing.T, s string, n int64, x float64) {
		checkAppendValue(t, db.S(s))
		checkAppendValue(t, db.I(n))
		checkAppendValue(t, db.F(x))
		tup := db.Tuple{db.S(s), db.I(n), db.F(x)}
		want, err := encodeLegacy(tupleJSON(tup))
		got, ok := appendJSONTuple(nil, tup)
		if (err == nil) != ok || (ok && string(got)+"\n" != string(want)) {
			t.Fatalf("appendJSONTuple = %q (ok=%v), encoding/json = %q (%v)", got, ok, want, err)
		}
	})
}

// awkwardDatabase declares its relations out of name order, carries
// every awkward string, int and float (NaN and the infinities aside),
// and has a relation that stays empty.
func awkwardDatabase(t *testing.T) *db.Database {
	t.Helper()
	schema := db.MustSchema(
		db.MustRelationSchema("Zeta",
			db.Attribute{Name: "Name", Kind: db.KindString},
			db.Attribute{Name: "N", Kind: db.KindInt},
			db.Attribute{Name: "X", Kind: db.KindFloat}),
		db.MustRelationSchema("Empty", db.Attribute{Name: "K", Kind: db.KindInt}),
		db.MustRelationSchema("Alpha",
			db.Attribute{Name: `Tag "quoted"`, Kind: db.KindString},
			db.Attribute{Name: "Note", Kind: db.KindString}),
	)
	d := db.NewDatabase(schema)
	var finite []float64
	for _, f := range awkwardFloats {
		if !math.IsNaN(f) && !math.IsInf(f, 0) {
			finite = append(finite, f)
		}
	}
	for i, s := range awkwardStrings {
		for k := range 3 {
			row := db.Tuple{db.S(s), db.I(awkwardInts[(i+k)%len(awkwardInts)]), db.F(finite[(i+k)%len(finite)])}
			if err := d.InsertTuple("Zeta", row); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.InsertTuple("Alpha", db.Tuple{db.S(s), db.S(fmt.Sprint("note ", i))}); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// awkwardLog modifies, deletes and inserts across both non-empty
// relations, so abort and deletion what-ifs differ from the live state.
func awkwardLog() []db.Transaction {
	return []db.Transaction{
		{Label: "up", Updates: []db.Update{
			db.Modify("Zeta", db.Pattern{db.Const(db.S("plain")), db.AnyVar("n"), db.AnyVar("x")},
				[]db.SetClause{db.Keep(), db.SetTo(db.I(7)), db.Keep()}),
			db.Insert("Alpha", db.Tuple{db.S("new\ttag"), db.S("ins")}),
		}},
		{Label: "del", Updates: []db.Update{
			db.Delete("Alpha", db.Pattern{db.AnyVar("a"), db.Const(db.S("note 3"))}),
			db.Modify("Zeta", db.Pattern{db.AnyVar("s"), db.Const(db.I(0)), db.AnyVar("x")},
				[]db.SetClause{db.Keep(), db.Keep(), db.SetTo(db.F(-1e-9))}),
		}},
	}
}

func fetchBody(t *testing.T, client *http.Client, method, url, body string) []byte {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s %s: %d %s", method, url, resp.StatusCode, b)
	}
	return b
}

// checkRestrictionBodies compares the served /v1/db, abort and deletion
// bodies of url (with an optional query) against the oracle rendering
// of the same answers computed directly on r.
func checkRestrictionBodies(t *testing.T, label, url, query string, r engine.Reader) {
	t.Helper()
	client := http.DefaultClient
	cases := []struct {
		name, method, path, body string
		want                     *db.Database
	}{
		{"db", "GET", "/v1/db", "", engine.LiveDB(r)},
		{"abort", "POST", "/v1/whatif/abort", `{"labels":["up"]}`, engine.AbortTransactions(r, "up")},
		{"abort-all", "POST", "/v1/whatif/abort", `{"labels":["up","del"]}`, engine.AbortTransactions(r, "up", "del")},
		{"deletion", "POST", "/v1/whatif/deletion", `{"tuples":["t0","t5"]}`,
			engine.DeletionPropagation(r, core.TupleAnnot("t0"), core.TupleAnnot("t5"))},
	}
	for _, c := range cases {
		want := legacyBody(t, c.want)
		for _, workers := range []string{"1", "2", "7"} {
			q := "?workers=" + workers
			if query != "" {
				q += "&" + query
			}
			got := fetchBody(t, client, c.method, url+c.path+q, c.body)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s %s workers=%s: served body differs from the encoding/json rendering\n got %s\nwant %s",
					label, c.name, workers, got, want)
			}
		}
	}
}

// TestRestrictionBodiesByteIdentical pins the streamed /v1/db and
// what-if answers to the encoding/json rendering of the materialized
// database on every kind of served reader.
func TestRestrictionBodiesByteIdentical(t *testing.T) {
	ctx := context.Background()
	serve := func(e engine.DB) string {
		ts := httptest.NewServer(New(e, WithLogf(t.Logf)).Handler())
		t.Cleanup(ts.Close)
		return ts.URL
	}
	apply := func(e engine.DB) {
		for _, txn := range awkwardLog() {
			if err := e.ApplyTransaction(&txn); err != nil {
				t.Fatal(err)
			}
		}
	}

	plain := engine.Open(engine.ModeNormalForm, awkwardDatabase(t))
	apply(plain)
	checkRestrictionBodies(t, "engine", serve(plain), "", plain)
	// The view pinned after the first transaction.
	checkRestrictionBodies(t, "as_of", serve(plain), "as_of=1", plain.At(engine.EpochSeq(1)))

	sharded := engine.Open(engine.ModeNormalForm, awkwardDatabase(t), engine.WithShards(2))
	apply(sharded)
	checkRestrictionBodies(t, "sharded", serve(sharded), "", sharded)
	checkRestrictionBodies(t, "sharded as_of", serve(sharded), "as_of=1", sharded.At(engine.EpochSeq(1)))

	st, err := wal.Open(t.TempDir(), wal.WithMode(engine.ModeNormalForm), wal.WithInitialDatabase(awkwardDatabase(t)),
		wal.WithHeartbeatEvery(20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	apply(st)
	leaderURL := serve(st)
	checkRestrictionBodies(t, "wal.Store", leaderURL, "", st)

	fctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	f, err := wal.OpenFollower(fctx, t.TempDir(), wal.HTTPSource(leaderURL, nil), wal.WithSync(wal.SyncNever))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	// Epoch numbers are per engine, so the follower's horizon cannot be
	// compared with the leader's; wait on the applied log position.
	waitFollowerLSN(t, f, st.Stats().LSN)
	checkRestrictionBodies(t, "follower", serve(f), "", f)
	checkRestrictionBodies(t, "follower as_of", serve(f), "as_of=1", f.At(engine.EpochSeq(1)))

	// Every relation empty: all three render "tuples":[].
	empty := engine.OpenEmpty(engine.ModeNormalForm, awkwardDatabase(t).Schema())
	checkRestrictionBodies(t, "empty", serve(empty), "", empty)
}

// TestRestrictionUnencodableFloat: a NaN has no JSON rendering, so the
// answer is a typed 500 envelope rather than a truncated 200.
func TestRestrictionUnencodableFloat(t *testing.T) {
	schema := db.MustSchema(db.MustRelationSchema("R", db.Attribute{Name: "X", Kind: db.KindFloat}))
	d := db.NewDatabase(schema)
	if err := d.InsertTuple("R", db.Tuple{db.F(math.NaN())}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(engine.Open(engine.ModeNormalForm, d), WithLogf(t.Logf)).Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/db")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(body), codeInternal) {
		t.Fatalf("NaN answer: %d %s, want 500 %s", resp.StatusCode, body, codeInternal)
	}
}
