package main

import (
	"net/http"
	"runtime"
	"strconv"
	"strings"

	"hyperprov/internal/engine"
	"hyperprov/internal/subscribe"
	"hyperprov/internal/wal"
)

// traceHandler records one span per request around the server's
// handler ("server.<route>"), parented on the client span named in the
// X-Bench-Span header.
func traceHandler(tr *tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		parent, err := strconv.Atoi(req.Header.Get("X-Bench-Span"))
		if err != nil {
			parent = -1
		}
		op, _ := strconv.ParseInt(req.Header.Get("X-Bench-Op"), 10, 64)
		name := "server." + strings.ReplaceAll(strings.TrimPrefix(req.URL.Path, "/v1/"), "/", "_")
		i := tr.start(name, parent, op)
		h.ServeHTTP(w, req)
		tr.end(i)
	})
}

// counters is a point-in-time read of the public stats calls.
type counters struct {
	planner  engine.PlannerStats
	mvcc     engine.MVCCStats
	wal      wal.StoreStats
	subs     subscribe.Stats
	alloc    uint64
	gcs      uint32
	dagNodes int64
}

func snapshotCounters(r *round) counters {
	var c counters
	d := r.leaderDB()
	c.planner = d.PlannerStats()
	c.mvcc = d.MVCCStats()
	if r.store != nil {
		c.wal = r.store.Stats()
	}
	c.subs = r.subSrv.srv.Subscriptions().StatsSnapshot()
	c.dagNodes = d.ProvDAGSize()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.alloc, c.gcs = ms.TotalAlloc, ms.NumGC
	return c
}

// layerRound is one round's per-layer material.
type layerRound struct {
	acked, rejected    int
	before, after      counters
	frames             []frameRec
	lags               []float64 // replica lag per acknowledged write
	decodeAlloc        uint64
	whatifBytes        []int
	admissionQueued    uint64
	snapshotBytes      int
	naiveProv          int64
	storeBytes         dirSizes
	replayed           uint64
	followerApplied    uint64
	followerReconnects uint64
	rerun              float64
}

// layerAcc keeps what only the traced rounds give, one entry per round.
type layerAcc struct {
	naive, rerun []float64
}

func (a *layerAcc) add(l layerRound) {
	a.naive = append(a.naive, float64(l.naiveProv))
	a.rerun = append(a.rerun, l.rerun)
}

// metrics derives the per-layer metrics of a traced run. Counts and
// sizes come from the counter round; times are means per operation of
// the spans named, and self times subtract the nested spans' totals
// from the enclosing span's total. The naive twin's size and the rerun
// are medians over the first fixedRounds traced rounds, the inputs the
// end-to-end prov_nodes is taken over.
func (a *layerAcc) metrics(res *result) map[string]metric {
	st := res.tracer.stats()
	c := res.counters
	per := func(n uint64) float64 { return safeDiv(float64(n), float64(c.acked)) }
	mean := func(name string) float64 { return st[name].mean() }
	self := func(outer []string, inner ...string) float64 {
		var tot float64
		var n int
		for _, o := range outer {
			tot += st[o].total
			n += st[o].count
		}
		for _, in := range inner {
			tot -= st[in].total
		}
		return safeDiv(tot, float64(n))
	}
	whatifs := []string{"server.whatif_abort", "server.whatif_deletion"}
	var whatifBytes float64
	for _, w := range c.whatifBytes {
		whatifBytes += float64(w)
	}
	// The ingest handler's apply is the store's on a durable leader and
	// the engine's on an in-memory one.
	walApply, engApply, applied := 0.0, mean("engine.ApplyBatch"), "engine.ApplyBatch"
	walLogSelf := 0.0
	if res.durable {
		walApply, applied = mean("wal.Store.ApplyBatch"), "wal.Store.ApplyBatch"
		walLogSelf = walApply - engApply
	}
	var deltaFrames, resyncFrames float64
	for _, f := range c.frames {
		switch f.typ {
		case "delta":
			deltaFrames++
		case "resync":
			resyncFrames++
		}
	}
	us, ms := 1e6, 1e3
	return map[string]metric{
		"server.ingest_self_us":        {self([]string{"server.ingest"}, "parser.ParseSQLLog", applied) * us, "us"},
		"server.whatif_self_ms":        {self(whatifs, "engine.BoolRestrictParallel") * ms, "ms"},
		"server.whatif_response_bytes": {safeDiv(whatifBytes, float64(len(c.whatifBytes))), "bytes"},
		"server.read_self_us":          {self([]string{"server.annotation"}, "engine.Annotation", "engine.Dependencies", "core.Expr.String", "upstruct.Eval") * us, "us"},
		"admission.queued_total":       {float64(c.admissionQueued), "count"},
		"parser.parse_us_per_txn":      {mean("parser.ParseSQLLog") * us, "us"},
		"parser.rejected":              {float64(c.rejected), "count"},
		"wal.apply_us":                 {walApply * us, "us"},
		"wal.log_self_us":              {walLogSelf * us, "us"},
		"wal.syncs_per_txn":            {per(c.after.wal.Syncs - c.before.wal.Syncs), "count"},
		"wal.log_bytes_per_txn":        {per(uint64(c.storeBytes.log)), "bytes"},
		"wal.checkpoint_bytes":         {float64(c.storeBytes.ckpt), "bytes"},
		"wal.stored_bytes_per_txn":     {per(uint64(c.storeBytes.log + c.storeBytes.ckpt)), "bytes"},
		"wal.replayed_records":         {float64(c.replayed), "count"},
		"wal.follower_records_applied": {float64(c.followerApplied), "count"},
		"wal.follower_reconnects":      {float64(c.followerReconnects), "count"},
		"wal.replica_lag_ms":           {quantile(c.lags, 0.5) * ms, "ms"},
		"engine.apply_us":              {engApply * us, "us"},
		"engine.full_scans_per_txn":    {per(c.after.planner.FullScans - c.before.planner.FullScans), "count"},
		"engine.index_scans_per_txn":   {per(c.after.planner.IndexScans - c.before.planner.IndexScans), "count"},
		"engine.versions_per_txn":      {per(c.after.mvcc.Versions - c.before.mvcc.Versions), "count"},
		"engine.annotation_us":         {mean("engine.Annotation") * us, "us"},
		"engine.dependencies_us":       {mean("engine.Dependencies") * us, "us"},
		"engine.restrict_ms":           {mean("engine.BoolRestrictParallel") * ms, "ms"},
		"core.prov_dag_nodes":          {float64(c.after.dagNodes), "nodes"},
		"core.render_us":               {mean("core.Expr.String") * us, "us"},
		"core.naive_prov_nodes":        {quantile(firstRounds(a.naive), 0.5), "nodes"},
		"upstruct.eval_us":             {mean("upstruct.Eval") * us, "us"},
		"provstore.save_ms":            {mean("provstore.SaveSnapshot") * ms, "ms"},
		"provstore.load_ms":            {mean("provstore.LoadSnapshot") * ms, "ms"},
		"provstore.snapshot_bytes":     {float64(c.snapshotBytes), "bytes"},
		"subscribe.sync_ms":            {mean("subscribe.Sync") * ms, "ms"},
		"subscribe.fanout_per_txn":     {per(c.after.subs.Fanout - c.before.subs.Fanout), "count"},
		"subscribe.deltas_per_txn":     {per(c.after.subs.Deltas - c.before.subs.Deltas), "count"},
		"subscribe.useful_frames":      {safeDiv(deltaFrames, deltaFrames+resyncFrames), "ratio"},
		"db.rerun_ms":                  {quantile(firstRounds(a.rerun), 0.5) * ms, "ms"},
		"runtime.alloc_bytes_per_txn":  {per(c.after.alloc - c.before.alloc - c.decodeAlloc), "bytes"},
		"runtime.gc_cycles":            {float64(c.after.gcs - c.before.gcs), "count"},
	}
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
