package subscribe_test

// Differential and behavioral tests for live subscriptions. The core
// property: after every committed epoch, the incrementally maintained
// state of each subscription is byte-identical to a from-scratch
// recompute (Recompute) against a view pinned at that epoch — across
// shard counts, both provenance modes, and on a replication follower.
// The behavioral tests cover commit-order delivery, slow and stalled
// subscribers (the write path must never block), concurrent
// subscribe/unsubscribe under -race, and delivery across an engine
// swap (Rebind).

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"hyperprov/internal/core"
	"hyperprov/internal/db"
	"hyperprov/internal/engine"
	"hyperprov/internal/subscribe"
	"hyperprov/internal/workload"
)

func testAnnot(rel string, t db.Tuple) core.Annot {
	return core.TupleAnnot("t_" + t.Key())
}

// testWorkload builds a small seeded update log with merge-heavy
// transactions so deltas exercise added, removed and changed rows.
func testWorkload(t testing.TB, seed int64) (*db.Database, []db.Transaction) {
	t.Helper()
	initial, txns, err := workload.Generate(workload.Config{
		Tuples: 80, Pool: 16, Group: 2, Updates: 30,
		QueriesPerTxn: 2, MergeRatio: 0.4, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return initial, txns
}

// poolTupleNames returns the annotation names of the first n initial
// tuples (the workload's affected pool, in insertion order).
func poolTupleNames(d engine.Reader, n int) []string {
	var names []string
	d.EachRow("R", func(tu db.Tuple, _ *core.Expr) {
		if len(names) < n {
			names = append(names, "t_"+tu.Key())
		}
	})
	return names
}

// testSpecs is the subscription mix the differential suite maintains:
// a deletion what-if over pool tuples, an abort what-if over the first
// transaction labels, a whole-relation watch and a hyperplane watch.
func testSpecs(d engine.Reader) []subscribe.Spec {
	return []subscribe.Spec{
		{ID: "del", Kind: subscribe.KindDeletion, Tuples: poolTupleNames(d, 6)},
		{ID: "abort", Kind: subscribe.KindAbort, Labels: []string{"q0", "q1", "q2"}},
		{ID: "watch", Kind: subscribe.KindWatch, Rel: "R"},
		{ID: "watch-alpha", Kind: subscribe.KindWatch, Rel: "R",
			Match: []any{nil, nil, "alpha", nil, nil}},
	}
}

// checkDifferential asserts every registered spec's incremental state
// equals a from-scratch recompute at the state's own horizon.
func checkDifferential(t *testing.T, m *subscribe.Manager, d engine.DB, specs []subscribe.Spec, step int) {
	t.Helper()
	for _, sp := range specs {
		got, since, ok := m.CanonicalState(sp.ID)
		if !ok {
			t.Fatalf("step %d: subscription %q vanished", step, sp.ID)
		}
		want, err := subscribe.Recompute(d.At(since), sp)
		if err != nil {
			t.Fatalf("step %d: recompute %q: %v", step, sp.ID, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("step %d: subscription %q diverged at seq %d\nincremental:\n%srecompute:\n%s",
				step, sp.ID, since, got, want)
		}
	}
}

// TestDifferentialIncrementalVsRecompute drives the full matrix:
// shards {1, 8} × both provenance modes, comparing incremental states
// to from-scratch recomputes after every single committed transaction.
// The connection buffer is deliberately tiny so frame drops and resync
// flags occur mid-run: delivery may degrade, state exactness may not.
func TestDifferentialIncrementalVsRecompute(t *testing.T) {
	for _, shards := range []int{1, 8} {
		for _, mode := range []engine.Mode{engine.ModeNaive, engine.ModeNormalForm} {
			t.Run(fmt.Sprintf("shards=%d/mode=%v", shards, mode), func(t *testing.T) {
				initial, txns := testWorkload(t, 3)
				d := engine.Open(mode, initial,
					engine.WithShards(shards),
					engine.WithInitialAnnotations(testAnnot))
				m := subscribe.NewManager(d)
				defer m.Close()
				c := m.Attach(4)
				specs := testSpecs(d)
				for _, sp := range specs {
					if _, err := m.Subscribe(c, sp); err != nil {
						t.Fatalf("subscribe %q: %v", sp.ID, err)
					}
				}
				for i := range txns {
					if err := d.ApplyTransaction(&txns[i]); err != nil {
						t.Fatalf("txn %d: %v", i, err)
					}
					m.Sync()
					checkDifferential(t, m, d, specs, i)
				}
			})
		}
	}
}

// TestCommitOrderDelivery asserts delta frames arrive in strictly
// increasing epoch order with no resync interleaved when the
// connection keeps up.
func TestCommitOrderDelivery(t *testing.T) {
	initial, txns := testWorkload(t, 5)
	d := engine.Open(engine.ModeNormalForm, initial,
		engine.WithInitialAnnotations(testAnnot))
	m := subscribe.NewManager(d)
	defer m.Close()
	c := m.Attach(len(txns) + 8)
	if _, err := m.Subscribe(c, subscribe.Spec{ID: "w", Kind: subscribe.KindWatch, Rel: "R"}); err != nil {
		t.Fatal(err)
	}
	if err := d.ApplyAll(context.Background(), txns); err != nil {
		t.Fatal(err)
	}
	m.Sync()

	var last uint64
	var frames int
	for {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		f, err := c.Next(ctx)
		cancel()
		if err != nil {
			break // drained
		}
		if f.Type != "delta" {
			t.Fatalf("frame %d: unexpected type %q (a keeping-up connection must see deltas only)", frames, f.Type)
		}
		if f.Epoch <= last {
			t.Fatalf("frame %d: epoch %d not after %d", frames, f.Epoch, last)
		}
		last = f.Epoch
		frames++
	}
	if frames == 0 {
		t.Fatal("no delta frames delivered")
	}
	if st := m.StatsSnapshot(); st.FrameDrops != 0 || st.EventDrops != 0 {
		t.Fatalf("unexpected drops on a keeping-up connection: %+v", st)
	}
}

// TestStalledSubscriberNeverBlocksApply registers a subscriber on a
// 1-frame buffer that never reads while the full workload applies; the
// write path must complete promptly, and the subscriber's next read
// must repair it with a resync snapshot matching a fresh recompute.
func TestStalledSubscriberNeverBlocksApply(t *testing.T) {
	initial, txns := testWorkload(t, 7)
	d := engine.Open(engine.ModeNormalForm, initial,
		engine.WithShards(4),
		engine.WithInitialAnnotations(testAnnot))
	m := subscribe.NewManager(d)
	defer m.Close()
	c := m.Attach(1)
	sp := subscribe.Spec{ID: "w", Kind: subscribe.KindWatch, Rel: "R"}
	if _, err := m.Subscribe(c, sp); err != nil {
		t.Fatal(err)
	}

	// A stalled reader: it takes at most one frame, then never reads
	// again, holding the 1-frame buffer full for the whole apply.
	stall, stallCancel := context.WithCancel(context.Background())
	defer stallCancel()
	var readerDone sync.WaitGroup
	readerDone.Add(1)
	go func() {
		defer readerDone.Done()
		_, _ = c.Next(stall)
		<-stall.Done()
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	start := time.Now()
	if err := d.ApplyAll(ctx, txns); err != nil {
		t.Fatalf("apply blocked behind stalled subscriber: %v (after %v)", err, time.Since(start))
	}
	m.Sync()
	stallCancel()
	readerDone.Wait()

	if st := m.StatsSnapshot(); st.FrameDrops == 0 {
		t.Fatalf("expected frame drops on a stalled 1-buffer connection, got %+v", st)
	}
	// Drain the one buffered frame, then expect the resync snapshot.
	var resync *subscribe.Frame
	for i := 0; i < 4; i++ {
		rctx, rcancel := context.WithTimeout(context.Background(), 2*time.Second)
		f, err := c.Next(rctx)
		rcancel()
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if f.Type == "resync" {
			resync = &f
			break
		}
	}
	if resync == nil {
		t.Fatal("stalled subscriber never offered a resync frame")
	}
	got, since, _ := m.CanonicalState("w")
	want, err := subscribe.Recompute(d.At(since), sp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("post-resync state diverged:\n%svs\n%s", got, want)
	}
	if len(resync.Rows) != bytes.Count(want, []byte("\n")) {
		t.Fatalf("resync carries %d rows, recompute has %d", len(resync.Rows), bytes.Count(want, []byte("\n")))
	}
}

// TestConcurrentSubscribeUnsubscribe churns connections and
// subscriptions from several goroutines while the workload applies —
// run under -race in CI — then differentially checks a subscription
// that lived through all of it.
func TestConcurrentSubscribeUnsubscribe(t *testing.T) {
	initial, txns := testWorkload(t, 9)
	d := engine.Open(engine.ModeNormalForm, initial,
		engine.WithShards(4),
		engine.WithInitialAnnotations(testAnnot))
	m := subscribe.NewManager(d)
	defer m.Close()

	keeper := m.Attach(4)
	sp := subscribe.Spec{ID: "keep", Kind: subscribe.KindWatch, Rel: "R"}
	if _, err := m.Subscribe(keeper, sp); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c := m.Attach(2)
				if c == nil {
					return
				}
				id := fmt.Sprintf("churn-%d-%d", g, i)
				if _, err := m.Subscribe(c, subscribe.Spec{
					ID: id, Kind: subscribe.KindDeletion, Tuples: []string{"t_x"},
				}); err != nil {
					t.Error(err)
					c.Close()
					return
				}
				ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
				_, _ = c.Next(ctx)
				cancel()
				if i%2 == 0 {
					m.Unsubscribe(c, id)
				}
				c.Close()
			}
		}(g)
	}

	if err := d.ApplyAll(context.Background(), txns); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	m.Sync()
	checkDifferential(t, m, d, []subscribe.Spec{sp}, -1)

	st := m.StatsSnapshot()
	if st.Subscriptions != 1 || st.Connections != 1 {
		t.Fatalf("churned registrations leaked: %+v", st)
	}
}

// TestRebindAcrossEngineSwap simulates the snapshot-load path: the
// manager is rebound to a brand-new engine mid-stream. Subscriptions
// must rebuild against the new engine, flag resync, and keep exact
// incremental state for commits on the new engine; late events from
// the old engine must be ignored.
func TestRebindAcrossEngineSwap(t *testing.T) {
	initialA, txnsA := testWorkload(t, 11)
	d1 := engine.Open(engine.ModeNormalForm, initialA,
		engine.WithInitialAnnotations(testAnnot))
	m := subscribe.NewManager(d1)
	defer m.Close()
	c := m.Attach(64)
	sp := subscribe.Spec{ID: "w", Kind: subscribe.KindWatch, Rel: "R"}
	if _, err := m.Subscribe(c, sp); err != nil {
		t.Fatal(err)
	}
	if err := d1.ApplyAll(context.Background(), txnsA[:10]); err != nil {
		t.Fatal(err)
	}
	m.Sync()

	initialB, txnsB := testWorkload(t, 13)
	d2 := engine.Open(engine.ModeNormalForm, initialB,
		engine.WithShards(2),
		engine.WithInitialAnnotations(testAnnot))
	m.Rebind(d2)
	// Old engine keeps committing after the swap; its events must not
	// corrupt state now maintained against d2.
	if err := d1.ApplyAll(context.Background(), txnsA[10:]); err != nil {
		t.Fatal(err)
	}
	for i := range txnsB {
		if err := d2.ApplyTransaction(&txnsB[i]); err != nil {
			t.Fatal(err)
		}
		m.Sync()
		checkDifferential(t, m, d2, []subscribe.Spec{sp}, i)
	}

	// The reader must be offered a resync for the swap.
	sawResync := false
	for i := 0; i < 256 && !sawResync; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		f, err := c.Next(ctx)
		cancel()
		if err != nil {
			break
		}
		sawResync = f.Type == "resync"
	}
	if !sawResync {
		t.Fatal("no resync frame after engine swap")
	}
	if st := m.StatsSnapshot(); st.Rebuilds == 0 {
		t.Fatalf("rebind did not rebuild: %+v", st)
	}
}

// TestSubscribeErrors covers spec validation and duplicate IDs.
func TestSubscribeErrors(t *testing.T) {
	initial, _ := testWorkload(t, 15)
	d := engine.Open(engine.ModeNormalForm, initial,
		engine.WithInitialAnnotations(testAnnot))
	m := subscribe.NewManager(d)
	defer m.Close()
	c := m.Attach(0)

	bad := []subscribe.Spec{
		{Kind: subscribe.KindDeletion},                                                // no tuples
		{Kind: subscribe.KindAbort},                                                   // no labels
		{Kind: subscribe.KindWatch, Rel: "nope"},                                      // unknown relation
		{Kind: subscribe.KindWatch, Rel: "R", Match: []any{nil}},                      // arity
		{Kind: subscribe.KindWatch, Rel: "R", Match: []any{true, nil, nil, nil, nil}}, // type
		{Kind: "nonsense"},
	}
	for i, sp := range bad {
		if _, err := m.Subscribe(c, sp); err == nil {
			t.Fatalf("bad spec %d accepted", i)
		}
	}
	if _, err := m.Subscribe(c, subscribe.Spec{ID: "dup", Kind: subscribe.KindWatch, Rel: "R"}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Subscribe(c, subscribe.Spec{ID: "dup", Kind: subscribe.KindWatch, Rel: "R"}); err == nil {
		t.Fatal("duplicate id accepted")
	}
	if !m.Unsubscribe(c, "dup") || m.Unsubscribe(c, "dup") {
		t.Fatal("unsubscribe bookkeeping wrong")
	}

	// Auto-assigned IDs must be unique and acknowledged.
	a1, err := m.Subscribe(c, subscribe.Spec{Kind: subscribe.KindWatch, Rel: "R"})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := m.Subscribe(c, subscribe.Spec{Kind: subscribe.KindWatch, Rel: "R"})
	if err != nil {
		t.Fatal(err)
	}
	if a1.Type != "ack" || a2.Type != "ack" || a1.ID == "" || a1.ID == a2.ID {
		t.Fatalf("bad acks: %+v / %+v", a1, a2)
	}
}

// TestAckCarriesInitialState: the ack snapshot must equal a recompute
// at the ack's epoch, so a client's state machine starts exact.
func TestAckCarriesInitialState(t *testing.T) {
	initial, txns := testWorkload(t, 17)
	d := engine.Open(engine.ModeNormalForm, initial,
		engine.WithInitialAnnotations(testAnnot))
	if err := d.ApplyAll(context.Background(), txns[:8]); err != nil {
		t.Fatal(err)
	}
	m := subscribe.NewManager(d)
	defer m.Close()
	c := m.Attach(0)
	sp := subscribe.Spec{ID: "w", Kind: subscribe.KindWatch, Rel: "R"}
	ack, err := m.Subscribe(c, sp)
	if err != nil {
		t.Fatal(err)
	}
	want, err := subscribe.Recompute(d.At(engine.EpochSeq(ack.Epoch)), sp)
	if err != nil {
		t.Fatal(err)
	}
	if got := bytes.Count(want, []byte("\n")); len(ack.Rows) != got {
		t.Fatalf("ack has %d rows, recompute %d", len(ack.Rows), got)
	}
}
