package wal_test

import (
	"context"
	"testing"
	"time"

	"hyperprov/internal/core"
	"hyperprov/internal/engine"
	"hyperprov/internal/wal"
)

// TestBoolRestrictParallelOverStoreAndFollower: the parallel Boolean
// restriction over a store and over a follower (each pinned to its
// newest horizon, then chunked like the engine it wraps) answers
// exactly what the engine fed the same log answers, for every worker
// count.
func TestBoolRestrictParallelOverStoreAndFollower(t *testing.T) {
	initial, txns := smallWorkload(t)
	ctx := context.Background()
	for _, shards := range []int{1, 2} {
		st, err := wal.Open(t.TempDir(),
			wal.WithMode(engine.ModeNormalForm),
			wal.WithInitialDatabase(initial),
			wal.WithEngineOptions(engine.WithShards(shards)),
			wal.WithSync(wal.SyncNever),
			wal.WithHeartbeatEvery(20*time.Millisecond),
		)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		if err := st.ApplyAll(ctx, txns); err != nil {
			t.Fatal(err)
		}
		_, src := startLeaderServer(t, st)
		f := openTestFollower(t, t.TempDir(), src, wal.WithSync(wal.SyncNever))
		waitApplied(t, f, st.Stats().LSN)

		ref := engine.New(engine.ModeNormalForm, initial)
		if err := ref.ApplyAll(ctx, txns); err != nil {
			t.Fatal(err)
		}
		envs := map[string]func(core.Annot) bool{
			"all-true": func(core.Annot) bool { return true },
			"abort":    func(a core.Annot) bool { return a != core.QueryAnnot(txns[0].Label) },
			"deletion": func(a core.Annot) bool { return a != core.TupleAnnot("t1") },
		}
		for name, env := range envs {
			want := engine.BoolRestrict(ref, env)
			for _, r := range []struct {
				label string
				r     engine.Reader
			}{{"store", st}, {"follower", f}} {
				for _, workers := range []int{1, 2, 5} {
					got, err := engine.BoolRestrictParallel(ctx, r.r, env, workers)
					if err != nil {
						t.Fatal(err)
					}
					if !got.Equal(want) {
						t.Fatalf("shards=%d %s %s workers=%d: differs from the engine\n%s", shards, r.label, name, workers, want.Diff(got))
					}
				}
			}
		}
	}
}

// TestIntervalSyncSkipsIdleTicks: a SyncInterval store fsyncs only
// when something was appended since the last sync — an idle store
// never does, and one append is made durable by exactly one fsync
// within an interval or so.
func TestIntervalSyncSkipsIdleTicks(t *testing.T) {
	initial, txns := smallWorkload(t)
	const interval = 5 * time.Millisecond
	st, err := wal.Open(t.TempDir(),
		wal.WithMode(engine.ModeNormalForm),
		wal.WithInitialDatabase(initial),
		wal.WithSync(wal.SyncInterval),
		wal.WithSyncInterval(interval),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	time.Sleep(10 * interval)
	if n := st.Stats().Syncs; n != 0 {
		t.Fatalf("idle store fsynced %d times over 10 intervals", n)
	}
	if err := st.ApplyTransaction(&txns[0]); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for st.Stats().Syncs == 0 && time.Now().Before(deadline) {
		time.Sleep(interval / 5)
	}
	time.Sleep(10 * interval)
	if n := st.Stats().Syncs; n != 1 {
		t.Fatalf("one append took %d fsyncs, want 1", n)
	}
}
