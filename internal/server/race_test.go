package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"hyperprov/internal/core"
	"hyperprov/internal/db"
	"hyperprov/internal/engine"
	"hyperprov/internal/parser"
	"hyperprov/internal/workload"
)

// TestServeWhileIngesting hammers every read endpoint while the
// synthetic transaction log streams in through /v1/ingest in chunks —
// the serving-layer contract of this package, checked under -race.
// Afterwards the served deletion-propagation result must equal
// engine.DeletionPropagation run directly on a serially ingested
// reference engine.
func TestServeWhileIngesting(t *testing.T) {
	cfg := workload.Default(0.002)
	cfg.QueriesPerTxn = 4
	initial, txns, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	annots := workload.InitialAnnotations()
	withNames := engine.WithInitialAnnotations(func(rel string, tp db.Tuple) core.Annot {
		return core.TupleAnnot(annots(rel, tp))
	})
	e := engine.New(engine.ModeNormalForm, initial, withNames)
	srv := New(e)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	// The log as SQL, split into per-transaction ingest requests.
	chunks := make([]string, 0, len(txns))
	for i := range txns {
		src, err := parser.FormatSQLLog(initial.Schema(), txns[i:i+1])
		if err != nil {
			t.Fatal(err)
		}
		chunks = append(chunks, src)
	}

	probe := initial.Instance("R").Tuples()[0]
	probeReq, err := json.Marshal(annotationRequest{Rel: "R", Tuple: tupleJSON(probe)})
	if err != nil {
		t.Fatal(err)
	}
	abortReq, err := json.Marshal(abortRequest{Labels: []string{txns[0].Label}})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	reader := func(f func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
					f()
				}
			}
		}()
	}
	get := func(path string) *http.Response {
		resp, err := client.Get(ts.URL + path)
		if err != nil {
			t.Error(err)
			return nil
		}
		return resp
	}
	drain := func(resp *http.Response) {
		if resp == nil {
			return
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	reader(func() { drain(get("/v1/db")) })
	reader(func() { drain(get("/v1/stats")) })
	reader(func() { drain(get("/v1/snapshot")) })
	reader(func() {
		resp, err := client.Post(ts.URL+"/v1/annotation", "application/json", strings.NewReader(string(probeReq)))
		if err != nil {
			t.Error(err)
			return
		}
		ar := decode[annotationResponse](t, resp)
		if !ar.Found {
			t.Error("probe tuple vanished mid-ingestion")
		}
	})
	reader(func() {
		resp, err := client.Post(ts.URL+"/v1/whatif/abort", "application/json", strings.NewReader(string(abortReq)))
		if err != nil {
			t.Error(err)
			return
		}
		drain(resp)
	})

	for _, chunk := range chunks {
		resp, err := client.Post(ts.URL+"/v1/ingest", "text/plain", strings.NewReader(chunk))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf("ingest failed: %d %s", resp.StatusCode, body)
		}
		drain(resp)
	}
	close(done)
	wg.Wait()

	// Reference: the same log ingested serially, no server involved.
	refInitial, refTxns, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := engine.New(engine.ModeNormalForm, refInitial, withNames)
	if err := ref.ApplyAll(context.Background(), refTxns); err != nil {
		t.Fatal(err)
	}

	// Served deletion propagation == direct engine.DeletionPropagation.
	deadName := workload.PoolAnnotName(0)
	delReq, err := json.Marshal(deletionRequest{Tuples: []string{deadName}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(ts.URL+"/v1/whatif/deletion", "application/json", strings.NewReader(string(delReq)))
	if err != nil {
		t.Fatal(err)
	}
	got := decode[any](t, resp)
	direct := engine.DeletionPropagation(ref, core.TupleAnnot(deadName))
	if want := normalize(t, legacyDBJSON(direct)); !reflect.DeepEqual(got, want) {
		t.Fatal("served deletion propagation differs from engine.DeletionPropagation on the serial reference")
	}
}
