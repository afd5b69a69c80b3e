package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"hyperprov/internal/core"
	"hyperprov/internal/db"
	"hyperprov/internal/engine"
	"hyperprov/internal/parser"
	"hyperprov/internal/tpcc"
	"hyperprov/internal/wal"
	"hyperprov/internal/workload"
)

var workloads = map[string]setupFunc{
	"tpcc-oltp":        setupTPCC,
	"synthetic-whatif": setupSynthetic,
	"pinned-push":      setupPinned,
}

// whatifWorkers is the what-if workers parameter: no more than the two
// cores the benchmark is sized for.
const whatifWorkers = 2

// render turns each transaction into its own ingest request body.
func render(s *db.Schema, txns []db.Transaction) ([][]byte, error) {
	out := make([][]byte, len(txns))
	for i := range txns {
		src, err := parser.FormatSQLLog(s, txns[i:i+1])
		if err != nil {
			return nil, fmt.Errorf("rendering %s: %w", txns[i].Label, err)
		}
		out[i] = []byte(src)
	}
	return out, nil
}

// twins builds the traced run's twins; walDir is empty for an
// in-memory leader.
func (r *round) twins(tr *tracer, initial *db.Database, walDir string, sync wal.SyncPolicy, opts ...engine.Option) error {
	if tr == nil {
		return nil
	}
	r.twin = engine.Open(engine.ModeNormalForm, initial, opts...)
	r.naive = engine.Open(engine.ModeNaive, initial, opts...)
	if walDir == "" {
		return nil
	}
	var err error
	r.walTwin, err = wal.Open(walDir, wal.WithInitialDatabase(initial), wal.WithSync(sync), wal.WithEngineOptions(opts...))
	return err
}

// readable returns the tuples a transaction inserts, or else
// those its pinned selections name: the rows a client would read back.
func readable(t *db.Transaction) (rels []string, tuples []db.Tuple) {
	for _, u := range t.Updates {
		switch u.Kind {
		case db.OpInsert:
			rels, tuples = append(rels, u.Rel), append(tuples, u.Row)
		default:
			if ts, ok := u.RouteTuples(); ok {
				for _, x := range ts {
					if u.Kind == db.OpModify {
						x = u.Target(x)
					}
					rels, tuples = append(rels, u.Rel), append(tuples, x)
				}
			}
		}
	}
	return rels, tuples
}

// --- tpcc-oltp ---------------------------------------------------------

// tpccCycle is the fixed transaction mix of one cycle: four New-Orders,
// four Payments and one Delivery (44/44/11, against TPC-C's 45/43/12).
const tpccCycle = "NPNPNPNPD"

func setupTPCC(c *config, seed int64, dir string, tr *tracer) (*round, error) {
	cfg, cycles := tpcc.Scaled(0.05), 20
	if c.tiny {
		cfg, cycles = tpcc.DefaultConfig(), 2
	}
	cfg.Seed = seed
	g := tpcc.NewGenerator(cfg)
	d, err := g.InitialDatabase()
	if err != nil {
		return nil, err
	}
	// A mature warehouse: Payments, applied to the initial database,
	// until the warehouse year-to-date total passes 1e6. From there on
	// every Payment renders w_ytd in exponent form, the fault this
	// workload keeps, so each Payment of the timed phase is rejected
	// whatever the seed.
	for {
		t := g.PaymentTxn()
		if err := d.ApplyTransaction(&t); err != nil {
			return nil, err
		}
		if t.Updates[0].Set[5].Val.Float() >= 1e6 {
			break
		}
	}
	var txns []db.Transaction
	for k := 0; k < cycles; k++ {
		for _, ch := range tpccCycle {
			switch ch {
			case 'N':
				txns = append(txns, g.NewOrderTxn())
			case 'P':
				txns = append(txns, g.PaymentTxn())
			default:
				txns = append(txns, g.DeliveryTxn())
			}
		}
	}
	r := &round{
		schema: d.Schema(), initial: d, full: d, txns: txns,
		abortLabel: txns[0].Label, abortIndex: 0,
		whatifEvery: len(tpccCycle),
		readsPerTxn: 2, recovers: 3,
		watches: []watchSpec{{id: "district", rel: tpcc.District, match: make([]*db.Value, len(d.Schema().Relation(tpcc.District).Attrs))}},
	}
	if r.bodies, err = render(r.schema, txns); err != nil {
		return nil, err
	}
	r.readTarget = readPlan(r, seed)
	// sync=interval: each commit is flushed to the OS and fsynced on the
	// store's timer. With sync=always the shared disk's fsync latency
	// drifted enough between runs to spread ingest_p50_ms over 0.35 of
	// its median (see README.md).
	if err := r.twins(tr, d, filepath.Join(dir, "twin"), wal.SyncInterval); err != nil {
		return nil, err
	}
	r.storeDir = filepath.Join(dir, "leader")
	r.store, err = wal.Open(r.storeDir, wal.WithInitialDatabase(d), wal.WithSync(wal.SyncInterval))
	if err != nil {
		r.closeAll()
		return nil, err
	}
	if r.leader, err = serve(r.store, tr); err != nil {
		r.closeAll()
		return nil, err
	}
	r.subSrv = r.leader
	return r, nil
}

// readPlan picks the rows read after each transaction: those it
// inserted or pinned, else a seeded row of the initial database.
func readPlan(r *round, seed int64) func(i, j int) (string, db.Tuple) {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	var pool []struct {
		rel string
		t   db.Tuple
	}
	for _, rel := range r.initial.Schema().Names() {
		for _, t := range r.initial.Instance(rel).Tuples() {
			pool = append(pool, struct {
				rel string
				t   db.Tuple
			}{rel, t})
		}
	}
	type target struct {
		rel string
		t   db.Tuple
	}
	plan := make([][]target, len(r.txns))
	for i := range r.txns {
		rels, ts := readable(&r.txns[i])
		for j := 0; j < r.readsPerTxn; j++ {
			if j < len(ts) {
				plan[i] = append(plan[i], target{rels[j], ts[j]})
				continue
			}
			p := pool[rng.Intn(len(pool))]
			plan[i] = append(plan[i], target{p.rel, p.t})
		}
	}
	return func(i, j int) (string, db.Tuple) { return plan[i][j].rel, plan[i][j].t }
}

// --- synthetic-whatif ------------------------------------------------------

// syntheticConfig is the Fig 8 generator configuration of one round: a
// 50,000-row table and 60 ten-query transactions whose selections fall
// on a pool of affected rows sized for the paper's ratio of about ten
// updates per affected row.
func syntheticConfig(tiny bool, seed int64) workload.Config {
	cfg, txns := workload.Default(0.05), 60
	if tiny {
		cfg, txns = workload.Default(0.001), 6
	}
	cfg.Updates = txns * cfg.QueriesPerTxn
	cfg.Pool = cfg.Updates / 10
	cfg.Seed = seed
	return cfg
}

func setupSynthetic(c *config, seed int64, dir string, tr *tracer) (*round, error) {
	d, txns, err := workload.Generate(syntheticConfig(c.tiny, seed))
	if err != nil {
		return nil, err
	}
	// Rows outside the pool carry grp values no update selects, so the
	// oracle replays the pool alone and adds the rest to every answer.
	pool := db.NewDatabase(d.Schema())
	var outside digest
	var poolTuples []db.Tuple
	for _, t := range d.Instance("R").Tuples() {
		if t[1].Int() >= 0 {
			if err := pool.InsertTuple("R", t); err != nil {
				return nil, err
			}
			poolTuples = append(poolTuples, t)
		} else {
			outside.add(tupleKey("R", t))
		}
	}
	rng := rand.New(rand.NewSource(seed))
	victim := poolTuples[rng.Intn(len(poolTuples))]
	grp := victim[1]
	r := &round{
		schema: d.Schema(), initial: pool, outside: outside, txns: txns,
		abortLabel: txns[1].Label, abortIndex: 1,
		deleteAnnot: workload.PoolAnnotName(victim[0].Int()), deleteRel: "R", deleteTuple: victim,
		whatifEvery: 6,
		readsPerTxn: 2, recovers: 3,
		watches: []watchSpec{{id: "group", rel: "R", match: []*db.Value{nil, &grp, nil, nil, nil}}},
	}
	if r.bodies, err = render(r.schema, txns); err != nil {
		return nil, err
	}
	r.readTarget = readPlan(r, seed)
	initAnnot := engine.WithInitialAnnotations(func(rel string, t db.Tuple) core.Annot {
		return core.TupleAnnot(workload.PoolAnnotName(t[0].Int()))
	})
	if err := r.twins(tr, d, "", 0, initAnnot); err != nil {
		return nil, err
	}
	if tr != nil {
		r.full = d // kept only for the traced run's rerun baseline
	}
	eng := engine.Open(engine.ModeNormalForm, d, initAnnot)
	if r.leader, err = serve(eng, tr); err != nil {
		return nil, err
	}
	r.subSrv = r.leader
	return r, nil
}

// --- pinned-push -------------------------------------------------------------

func setupPinned(c *config, seed int64, dir string, tr *tracer) (*round, error) {
	cfg, txnsPerRound := workload.Default(0.02), 150
	if c.tiny {
		cfg, txnsPerRound = workload.Default(0.001), 10
	}
	cfg.Updates = txnsPerRound * cfg.QueriesPerTxn
	cfg.Seed = seed
	d, txns, err := workload.GeneratePinned(cfg)
	if err != nil {
		return nil, err
	}
	r := &round{
		schema: d.Schema(), initial: d, full: d, txns: txns,
		abortLabel: txns[0].Label, abortIndex: 0,
		whatifEvery: 25,
		readsPerTxn: 1, recovers: 3,
	}
	if c.tiny {
		r.whatifEvery = 5
	}
	// Pattern watches over pinned rows the log modifies, spread over the
	// round.
	for k := 0; k < 8; k++ {
		t := &txns[k*len(txns)/8]
		for _, u := range t.Updates {
			if ts, ok := u.RouteTuples(); ok && u.Kind == db.OpModify {
				id := ts[0][0]
				r.watches = append(r.watches, watchSpec{id: fmt.Sprintf("row%d", k), rel: "R", match: []*db.Value{&id, nil, nil, nil, nil}})
				break
			}
		}
	}
	if r.bodies, err = render(r.schema, txns); err != nil {
		return nil, err
	}
	r.readTarget = readPlan(r, seed)
	shards := engine.WithShards(2)
	if err := r.twins(tr, d, filepath.Join(dir, "twin"), wal.SyncInterval, shards); err != nil {
		return nil, err
	}
	// Leader and follower run sync=interval, like tpcc-oltp's store:
	// per-commit fsync would add the shared disk's noise to replication
	// and push.
	r.storeDir = filepath.Join(dir, "leader")
	r.storeOps = []wal.Option{wal.WithEngineOptions(shards), wal.WithSync(wal.SyncInterval)}
	r.store, err = wal.Open(r.storeDir, append(r.storeOps, wal.WithInitialDatabase(d))...)
	if err != nil {
		r.closeAll()
		return nil, err
	}
	if r.leader, err = serve(r.store, tr); err != nil {
		r.closeAll()
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	r.follower, err = wal.OpenFollower(ctx, filepath.Join(dir, "follower"), wal.HTTPSource(r.leader.url, nil), wal.WithSync(wal.SyncInterval))
	if err != nil {
		r.closeAll()
		return nil, fmt.Errorf("follower: %w", err)
	}
	if err := r.follower.WaitHorizon(ctx, r.store.Horizon()); err != nil {
		r.closeAll()
		return nil, fmt.Errorf("follower bootstrap: %w", err)
	}
	if r.subSrv, err = serve(r.follower, nil); err != nil {
		r.closeAll()
		return nil, err
	}
	return r, nil
}
