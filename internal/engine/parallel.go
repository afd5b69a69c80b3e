package engine

import (
	"context"
	"runtime"
	"sync"

	"hyperprov/internal/db"
	"hyperprov/internal/upstruct"
)

// rowChunk is one relation-homogeneous slice of rows handed to a
// specialization worker, together with the horizon its rows must be
// resolved at.
type rowChunk struct {
	rel  string
	at   uint64
	rows []*row
}

// chunkPool recycles the chunk descriptor slices of the parallel
// passes. Unlike the writer-owned scan-buffer free-list, parallel
// passes run concurrently on the reader side, so this scratch really
// needs sync.Pool. Descriptors are cleared on put so the pool never
// pins row snapshots.
var chunkPool = sync.Pool{
	New: func() any {
		s := make([]rowChunk, 0, 16)
		return &s
	},
}

func getChunkBuf() []rowChunk {
	return (*chunkPool.Get().(*[]rowChunk))[:0]
}

func putChunkBuf(chunks []rowChunk) {
	chunks = chunks[:cap(chunks)]
	for i := range chunks {
		chunks[i] = rowChunk{}
	}
	chunks = chunks[:0]
	chunkPool.Put(&chunks)
}

// chunksAt splits every relation's visible rows at horizon s into up to
// workers pieces, in deterministic order (schema order, then row order
// within the relation), appending into buf. Lock-free: the lists are
// snapshotted and rows beyond the horizon excluded up front, so workers
// only resolve versions.
func (e *Engine) chunksAt(buf []rowChunk, workers int, s uint64) []rowChunk {
	chunks := buf
	for _, rel := range e.schema.Names() {
		tbl := e.tables[rel]
		rows := tbl.list.snapshot()
		// Visible rows form a prefix (plain-engine lists are
		// sequence-ordered); the trim walks the contiguous sequence
		// vector instead of chasing row pointers.
		n := len(rows)
		if seqs := tbl.cols.seqPrefix(n); len(seqs) == n {
			for n > 0 && seqs[n-1] > s {
				n--
			}
		} else {
			for n > 0 && rows[n-1].seq > s {
				n--
			}
		}
		rows = rows[:n]
		per := (len(rows) + workers - 1) / workers
		if per == 0 {
			continue
		}
		for start := 0; start < len(rows); start += per {
			end := min(start+per, len(rows))
			chunks = append(chunks, rowChunk{rel: rel, at: s, rows: rows[start:end]})
		}
	}
	return chunks
}

// chunksAt splits the shard-merged visible rows (global insertion
// order at horizon s) into up to workers pieces per relation.
func (se *ShardedEngine) chunksAt(buf []rowChunk, workers int, s uint64) []rowChunk {
	chunks := buf
	for _, rel := range se.schema.Names() {
		rows := se.mergedRowsAt(rel, s)
		per := (len(rows) + workers - 1) / workers
		if per == 0 {
			continue
		}
		for start := 0; start < len(rows); start += per {
			end := min(start+per, len(rows))
			chunks = append(chunks, rowChunk{rel: rel, at: s, rows: rows[start:end]})
		}
	}
	return chunks
}

// pinnable is the part of DB that pins a view.
type pinnable interface {
	At(seq uint64) View
	Horizon() uint64
}

// pinned resolves a reader that wraps an engine without being one of
// its types (wal.Store, wal.Follower) to the view it pins at its newest
// horizon, so the passes below run on the engine's rows rather than
// the generic fallback. Engines, views and foreign readers are
// returned as is.
func pinned(e Reader) Reader {
	switch e.(type) {
	case *Engine, *ShardedEngine, *engineView, *shardedView:
		return e
	}
	if p, ok := e.(pinnable); ok {
		return p.At(p.Horizon())
	}
	return e
}

// readerChunks resolves a Reader (through pinned) to its chunk list,
// built in a pooled buffer the caller must return via putChunkBuf, and
// mode, or ok=false for foreign implementations that must use the
// generic fallback.
func readerChunks(e Reader, workers int) (chunks []rowChunk, mode Mode, ok bool) {
	switch v := pinned(e).(type) {
	case *Engine:
		return v.chunksAt(getChunkBuf(), workers, v.Horizon()), v.mode, true
	case *ShardedEngine:
		return v.chunksAt(getChunkBuf(), workers, v.Horizon()), v.mode, true
	case *engineView:
		return v.e.chunksAt(getChunkBuf(), workers, v.s), v.e.mode, true
	case *shardedView:
		return v.se.chunksAt(getChunkBuf(), workers, v.s), v.se.mode, true
	default:
		return nil, 0, false
	}
}

// foldChunks is the one parallel pass every parallel provenance usage
// runs. Each chunk is evaluated on its own goroutine, which folds every
// visible row's value into a chunk-private accumulator, so workers
// share no state on the hot path. Accumulators come back in chunk
// order. ctx is checked at chunk boundaries before dispatch; on
// cancellation the pass stops early — chunks already dispatched still
// complete — and ctx.Err() is returned.
func foldChunks[T, A any](ctx context.Context, chunks []rowChunk, mode Mode, s upstruct.Structure[T], env upstruct.Env[T], fold func(acc A, rel string, t db.Tuple, v T) A) ([]A, error) {
	accs := make([]A, len(chunks))
	var wg sync.WaitGroup
	for i := range chunks {
		if ctx.Err() != nil {
			break
		}
		wg.Add(1)
		go func(i int, c rowChunk) {
			defer wg.Done()
			var acc A
			for _, r := range c.rows {
				ver := r.at(c.at)
				if ver == nil {
					continue
				}
				acc = fold(acc, c.rel, r.tuple, evalVersion(mode, ver, s, env))
			}
			accs[i] = acc
		}(i, chunks[i])
	}
	wg.Wait()
	return accs, ctx.Err()
}

// SpecializeParallel is Specialize with row evaluation spread over
// workers goroutines (0 = GOMAXPROCS). Expressions are immutable and
// the structure's operations must be pure, so evaluation parallelizes
// trivially; f is called from multiple goroutines and must be safe for
// concurrent use. The MVCC horizon is pinned once at entry (a View's
// own pinned horizon is used as-is), so the pass is lock-free and
// consistent against concurrent writers. ctx is checked at chunk
// boundaries before dispatch; on cancellation the pass stops early —
// chunks already dispatched still complete — and ctx.Err() is
// returned. This is a beyond-the-paper extension: provenance usage is
// the measurement of Figures 7c/8c, and valuation is embarrassingly
// parallel, unlike the re-execution baseline.
func SpecializeParallel[T any](ctx context.Context, e Reader, s upstruct.Structure[T], env upstruct.Env[T], workers int, f func(rel string, t db.Tuple, v T)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 {
		if err := ctx.Err(); err != nil {
			return err
		}
		Specialize(e, s, env, f)
		return nil
	}
	chunks, mode, ok := readerChunks(e, workers)
	if !ok {
		if err := ctx.Err(); err != nil {
			return err
		}
		Specialize(e, s, env, f)
		return nil
	}
	defer putChunkBuf(chunks)
	_, err := foldChunks(ctx, chunks, mode, s, env, func(_ struct{}, rel string, t db.Tuple, v T) struct{} {
		f(rel, t, v)
		return struct{}{}
	})
	return err
}

// restrictChunks is the Boolean-valuation pass under both
// BoolRestrictParallel and BoolRestrictAppend: hit folds every row
// whose provenance evaluates to true into its chunk's accumulator.
// Chunks come back with their relation names, relations in schema
// order and chunks in row order within a relation; a relation with no
// visible rows has no chunk. The horizon is pinned once at entry; the
// pass is lock-free. On cancellation, ctx.Err() is returned.
func restrictChunks[A any](ctx context.Context, e Reader, env upstruct.Env[bool], workers int, hit func(acc A, t db.Tuple) A) (rels []string, accs []A, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	chunks, mode, ok := readerChunks(e, workers)
	if !ok {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		// Foreign readers stream sequentially, one chunk per relation
		// with hits.
		Specialize(e, upstruct.Bool, env, func(rel string, t db.Tuple, v bool) {
			if !v {
				return
			}
			if n := len(rels); n == 0 || rels[n-1] != rel {
				rels = append(rels, rel)
				accs = append(accs, *new(A))
			}
			accs[len(accs)-1] = hit(accs[len(accs)-1], t)
		})
		return rels, accs, nil
	}
	defer putChunkBuf(chunks)
	accs, err = foldChunks(ctx, chunks, mode, upstruct.Bool, env, func(acc A, _ string, t db.Tuple, v bool) A {
		if v {
			acc = hit(acc, t)
		}
		return acc
	})
	if err != nil {
		return nil, nil, err
	}
	rels = make([]string, len(chunks))
	for i, c := range chunks {
		rels[i] = c.rel
	}
	return rels, accs, nil
}

// RestrictChunk is one chunk of a streamed Boolean restriction: the
// hits among one contiguous run of relation Rel's rows, as rendered by
// the caller's append function into Buf.
type RestrictChunk struct {
	Rel  string
	Hits int
	Buf  []byte
}

// BoolRestrictAppend answers the database selected by a Boolean
// valuation without materializing it: every worker renders its chunk's
// hits with appendHit, in row order, straight into the chunk's own
// byte buffer. Chunks come back in BoolRestrictParallel's order —
// relations in schema order, chunks in row order within a relation —
// so concatenating them per relation reproduces the sequential stream;
// a relation with no visible rows has no chunk. appendHit runs on
// several goroutines at once and must be safe for concurrent use. The
// horizon is pinned once at entry and the pass is lock-free; on
// cancellation, (nil, ctx.Err()) is returned.
func BoolRestrictAppend(ctx context.Context, e Reader, env upstruct.Env[bool], workers int, appendHit func(dst []byte, t db.Tuple) []byte) ([]RestrictChunk, error) {
	rels, out, err := restrictChunks(ctx, e, env, workers, func(c RestrictChunk, t db.Tuple) RestrictChunk {
		c.Buf = appendHit(c.Buf, t)
		c.Hits++
		return c
	})
	if err != nil {
		return nil, err
	}
	for i := range out {
		out[i].Rel = rels[i]
	}
	return out, nil
}

// BoolRestrictParallel materializes the database selected by a Boolean
// valuation using parallel evaluation: a collector over the chunked
// pass of BoolRestrictAppend, so the result's insertion order matches
// the sequential BoolRestrict on either engine (or view). env must be
// safe for concurrent use (pure functions and MapEnv lookups are). On
// cancellation, (nil, ctx.Err()) is returned.
func BoolRestrictParallel(ctx context.Context, e Reader, env upstruct.Env[bool], workers int) (*db.Database, error) {
	rels, hits, err := restrictChunks(ctx, e, env, workers, func(acc []db.Tuple, t db.Tuple) []db.Tuple {
		return append(acc, t)
	})
	if err != nil {
		return nil, err
	}
	out := db.NewDatabase(e.Schema())
	for i, rel := range rels {
		for _, t := range hits[i] {
			_ = out.InsertTuple(rel, t)
		}
	}
	return out, nil
}
