package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"hyperprov/internal/core"
	"hyperprov/internal/db"
	"hyperprov/internal/engine"
	"hyperprov/internal/parser"
	"hyperprov/internal/provstore"
	"hyperprov/internal/server"
	"hyperprov/internal/upstruct"
	"hyperprov/internal/wal"
)

// config is one benchmark run.
type config struct {
	setup   setupFunc
	seed    int64
	seconds float64
	trace   bool
	tiny    bool
	dir     string
	// corrupt injects faults into recorded answers before they are
	// checked; the quick test uses it to show no check is vacuous.
	corrupt *corruptions
}

// corruptions are the quick test's fault-injection hooks: whatif alters
// the run's first what-if answer, frames each round's recorded frames,
// snapshot every restored snapshot.
type corruptions struct {
	whatif   func(body []byte) []byte
	frames   func(fs []frameRec) []frameRec
	snapshot func(b []byte) []byte
}

// setupFunc builds one round of a workload: inputs from the round's
// seed, and the system under test serving them.
type setupFunc func(c *config, seed int64, dir string, tr *tracer) (*round, error)

// watchSpec is a watch subscription in typed form, so the oracle can
// evaluate its pattern.
type watchSpec struct {
	id    string
	rel   string
	match []*db.Value // nil entries match anything
}

// round is one fresh instance of a workload: its log, its read and
// what-if plan, and the servers answering them.
type round struct {
	schema  *db.Schema
	initial *db.Database // the oracle's starting state
	// outside is the digest of tuples the oracle leaves out of initial
	// because no update of the log can select them; they belong to every
	// answer unchanged (synthetic-whatif's non-pool rows).
	outside digest
	full    *db.Database // the whole initial database (the rerun baseline)

	txns   []db.Transaction
	bodies [][]byte // txns rendered by parser.FormatSQLLog, one per request

	abortLabel  string
	abortIndex  int    // index of abortLabel in txns
	deleteAnnot string // input-tuple annotation of the deletion what-if ("" for none)
	deleteRel   string
	deleteTuple db.Tuple
	whatifEvery int // ask the what-ifs after every whatifEvery-th transaction

	readsPerTxn int
	readTarget  func(i, j int) (string, db.Tuple)

	watches []watchSpec

	tr       *tracer // nil in untraced rounds
	leader   *served
	subSrv   *served // where the subscription stream connects
	store    *wal.Store
	storeDir string
	storeOps []wal.Option
	follower *wal.Follower
	recovers int // timed reopens (or snapshot restores) per round

	// Twins for the traced run, fed the acknowledged transactions:
	// in-memory engines (NF for engine.apply_us, naive for
	// core.naive_prov_nodes) and, for a durable leader, a store with its
	// options (wal.apply_us). The served store itself is not wrapped: the
	// server's replication and stats paths need the concrete *wal.Store.
	twin, naive engine.DB
	walTwin     *wal.Store
	twinFlip    bool

	// decodeAlloc is what the client allocated decoding what-if answers,
	// kept out of runtime.alloc_bytes_per_txn.
	decodeAlloc uint64
}

// served is one HTTP server over an engine on a loopback listener.
type served struct {
	srv  *server.Server
	hs   *http.Server
	url  string
	done chan struct{}
}

func serve(eng engine.DB, tr *tracer) (*served, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := server.New(eng, server.WithLogf(func(string, ...any) {}))
	var h http.Handler = srv.Handler()
	if tr != nil {
		h = traceHandler(tr, h)
	}
	s := &served{srv: srv, hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // http.ErrServerClosed once close runs
	}()
	return s, nil
}

func (s *served) close() {
	if s == nil {
		return
	}
	s.srv.Close()
	s.hs.Close()
	<-s.done
}

// --- client ----------------------------------------------------------

// client is the workload's single closed-loop client: one goroutine
// issuing requests, plus the subscription reader. Two connections at
// most (the request connection and the stream).
type client struct {
	hc *http.Client
	tr *tracer
}

func newClient(tr *tracer) *client {
	return &client{tr: tr, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     2,
		MaxIdleConnsPerHost: 2,
		DisableCompression:  true,
	}}}
}

type reply struct {
	status int
	body   []byte
	dur    time.Duration
	sent   time.Time
}

func (c *client) do(method, u, ctype string, body []byte, parent int, op int64) (reply, error) {
	req, err := http.NewRequest(method, u, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	if c.tr != nil {
		req.Header.Set("X-Bench-Span", strconv.Itoa(parent))
		req.Header.Set("X-Bench-Op", strconv.FormatInt(op, 10))
	}
	sent := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{}, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return reply{}, err
	}
	return reply{status: resp.StatusCode, body: b, dur: time.Since(sent), sent: sent}, nil
}

// --- results ---------------------------------------------------------

type opStat struct {
	attempted, failed int
	lat               []float64 // seconds, successful operations
}

// fixedRounds is how many rounds every run makes at least. The
// per-round figures (set-up time, heap, provenance size) are medians
// over these first rounds, whose inputs depend on the seed alone, so a
// faster program does not change which inputs they are taken over.
const fixedRounds = 5

// firstRounds keeps the entries of the first fixedRounds rounds.
func firstRounds(xs []float64) []float64 { return xs[:min(len(xs), fixedRounds)] }

// result aggregates every round of a run.
type result struct {
	ops      map[string]*opStat
	rounds   int
	problems []string
	tracer   *tracer

	// One entry per round, in round order.
	setups []float64
	heaps  []float64
	provs  []float64

	recovers []float64
	acked    int
	durable  bool // the leader is a wal.Store

	// A traced run's per-layer material: counters from its untraced
	// counter round, span-derived figures from its traced rounds.
	counters layerRound
	layer    layerAcc
}

func (r *result) op(name string) *opStat {
	o := r.ops[name]
	if o == nil {
		o = &opStat{}
		r.ops[name] = o
	}
	return o
}

func (r *result) problem(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// attempted and failed count requests; push is not one (its row in the
// table counts the acknowledged writes a frame was awaited for).
func (r *result) attempted() int {
	n := 0
	for name, o := range r.ops {
		if name != "push" {
			n += o.attempted
		}
	}
	return n
}

func (r *result) failed() int {
	n := 0
	for name, o := range r.ops {
		if name != "push" {
			n += o.failed
		}
	}
	return n
}

func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	f := pos - float64(lo)
	return s[lo]*(1-f) + s[lo+1]*f
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) metrics(traced bool) map[string]metric {
	if traced {
		return r.layer.metrics(r)
	}
	p50 := func(xs []float64) float64 { return quantile(xs, 0.5) }
	return map[string]metric{
		"setup_s":       {p50(firstRounds(r.setups)), "s"},
		"ingest_p50_ms": {p50(r.op("ingest").lat) * 1e3, "ms"},
		"read_p50_us":   {p50(r.op("read").lat) * 1e6, "us"},
		"whatif_p50_ms": {p50(r.op("whatif").lat) * 1e3, "ms"},
		"push_p50_ms":   {p50(r.op("push").lat) * 1e3, "ms"},
		"recover_s":     {p50(r.recovers), "s"},
		"heap_mb":       {p50(firstRounds(r.heaps)), "MB"},
		"prov_nodes":    {p50(firstRounds(r.provs)), "nodes"},
	}
}

// --- the run ---------------------------------------------------------

func run(c config) (*result, error) {
	res := &result{ops: map[string]*opStat{}}
	// Each round draws fresh inputs from the run's seed; the same seed
	// repeats the same sequence of rounds.
	roundSeed := func(round int) int64 { return c.seed*1_000_003 + int64(round) }
	if c.trace {
		// The counter round: round 0 without tracer or twins, so the
		// stats counters and the runtime's allocation and GC counts are
		// those of the served system and the client alone.
		// Its operations are checked, but kept out of the run's table.
		cr := &result{ops: map[string]*opStat{}}
		dir := filepath.Join(c.dir, "counters")
		lc, err := runRound(&c, cr, nil, roundSeed(0), dir)
		if err != nil {
			return nil, fmt.Errorf("counter round: %w", err)
		}
		os.RemoveAll(dir)
		res.counters, res.problems = lc, cr.problems
		res.tracer = newTracer()
	}
	start := time.Now()
	for round := 0; round < c.minRounds() || time.Since(start).Seconds() < c.seconds; round++ {
		dir := filepath.Join(c.dir, fmt.Sprintf("round%d", round))
		lc, err := runRound(&c, res, res.tracer, roundSeed(round), dir)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", round, err)
		}
		os.RemoveAll(dir)
		res.layer.add(lc)
		res.rounds++
	}
	return res, nil
}

// minRounds is fixedRounds, or one round of the quick test's tiny
// inputs.
func (c *config) minRounds() int {
	if c.tiny {
		return 1
	}
	return fixedRounds
}

// exponentLit matches a float rendered in exponent form, the token the
// SQL lexer cannot scan.
var exponentLit = regexp.MustCompile(`[0-9]e[+-][0-9]`)

// readRec, whatifRec and the frames are what the timed phase records;
// the checks run after it, against oracle replays.
type readRec struct {
	pos   int // acknowledged transactions before the read
	rel   string
	tuple db.Tuple
	found bool
	live  bool
}

type whatifRec struct {
	pos   int
	kind  string // "abort" or "deletion"
	got   digest
	bytes int
}

func runRound(c *config, res *result, tr *tracer, seed int64, dir string) (layerRound, error) {
	var lc layerRound
	base := liveHeapMB()
	t0 := time.Now()
	r, err := c.setup(c, seed, dir, tr)
	if err != nil {
		return lc, fmt.Errorf("setup: %w", err)
	}
	r.tr = tr
	cl := newClient(tr)
	defer cl.hc.CloseIdleConnections()
	// The subscription stream opens in setup: its acks carry the full
	// initial state of every what-if subscription.
	stream, err := openStream(cl, r)
	if err != nil {
		r.closeAll()
		return lc, fmt.Errorf("subscribe: %w", err)
	}
	res.setups = append(res.setups, time.Since(t0).Seconds())
	res.durable = r.store != nil
	defer r.closeAll()
	defer stream.close()

	// Start every timed phase from a collected heap, so set-up garbage
	// does not land on the first requests.
	runtime.GC()
	before := snapshotCounters(r)
	var (
		acked    []int // indexes into r.txns
		sendAt   = map[string]time.Time{}
		reads    []readRec
		whatifs  []whatifRec
		rejected int
		op       int64
	)
	ingest, read, whatif := res.op("ingest"), res.op("read"), res.op("whatif")
	ingestStart := time.Now()
	for i := range r.txns {
		op++
		root := tr.start("client.ingest", -1, op)
		if tr != nil {
			// Bodies hit by the exponent fault fail here as on the server.
			tr.timed("parser.ParseSQLLog", root, op, func() { _, _ = parser.ParseSQLLog(r.schema, string(r.bodies[i])) })
		}
		rep, err := cl.do("POST", r.leader.url+"/v1/ingest", "text/plain", r.bodies[i], root, op)
		tr.end(root)
		if err != nil {
			return lc, fmt.Errorf("ingest %s: %w", r.txns[i].Label, err)
		}
		ingest.attempted++
		switch {
		case rep.status == http.StatusOK:
			ingest.lat = append(ingest.lat, rep.dur.Seconds())
			acked = append(acked, i)
			sendAt[r.txns[i].Label] = rep.sent
			if r.follower != nil {
				lag, err := waitFollower(r, rep.sent.Add(rep.dur))
				if err != nil {
					return lc, err
				}
				lc.lags = append(lc.lags, lag)
			}
			// The client waits until the subscription fan-out of its write
			// is done (and, on pinned-push, the follower has replayed it),
			// so no request overlaps the previous write's background work.
			tr.timed("subscribe.Sync", -1, op, r.subSrv.srv.Subscriptions().Sync)
			// The twins run once the served system is idle.
			if err := r.twinApply(tr, op, &r.txns[i]); err != nil {
				return lc, fmt.Errorf("twin apply %s: %w", r.txns[i].Label, err)
			}
		case isExponentFault(rep, r.bodies[i]):
			// The named fault: a float rendered as 1.00299333e+06 that
			// the SQL lexer rejects. Counted, never retried.
			ingest.failed++
			rejected++
		default:
			return lc, fmt.Errorf("ingest %s: unexpected %d %s", r.txns[i].Label, rep.status, bytes.TrimSpace(rep.body))
		}
		for j := 0; j < r.readsPerTxn; j++ {
			op++
			rel, t := r.readTarget(i, j)
			rec, dur, err := doRead(cl, r, tr, op, rel, t)
			read.attempted++
			if err != nil {
				return lc, err
			}
			rec.pos = len(acked)
			reads = append(reads, rec)
			read.lat = append(read.lat, dur)
		}
		if (i+1)%r.whatifEvery == 0 && i >= r.abortIndex {
			for _, kind := range r.whatifKinds() {
				op++
				rec, dur, err := doWhatif(cl, r, c, tr, op, kind)
				whatif.attempted++
				if err != nil {
					return lc, err
				}
				rec.pos = len(acked)
				whatifs = append(whatifs, rec)
				lc.whatifBytes = append(lc.whatifBytes, rec.bytes)
				whatif.lat = append(whatif.lat, dur)
			}
		}
	}
	timed := time.Since(ingestStart).Seconds()
	res.acked += len(acked)

	// Every acknowledged write must reach the subscriber before the
	// stream is judged.
	if r.follower != nil {
		if err := waitHorizon(r.follower, r.leaderHorizon()); err != nil {
			return lc, fmt.Errorf("follower catch-up: %w", err)
		}
	}
	r.subSrv.srv.Subscriptions().Sync()
	if err := stream.waitDeltas(r.subSrv.srv.Subscriptions()); err != nil {
		return lc, err
	}
	// The round's live heap: expressions interned by earlier rounds stay
	// (the hash-cons table is append-only), so the heap before set-up is
	// subtracted.
	res.heaps = append(res.heaps, liveHeapMB()-base)
	leaderDB := r.leaderDB()
	res.provs = append(res.provs, float64(leaderDB.ProvSize()))
	after := snapshotCounters(r)

	frames := stream.close()
	pushes := res.op("push")
	pushes.attempted += len(acked)
	firstPush := map[string]bool{}
	for _, f := range frames {
		if f.typ != "delta" || firstPush[f.label] {
			continue
		}
		firstPush[f.label] = true
		if at, ok := sendAt[f.label]; ok {
			pushes.lat = append(pushes.lat, f.at.Sub(at).Seconds())
		}
	}
	if c.corrupt != nil && c.corrupt.frames != nil {
		frames = c.corrupt.frames(frames)
	}
	fresh, err := freshAcks(cl, r)
	if err != nil {
		return lc, err
	}
	live := dbDigest(engine.LiveDB(leaderDB))
	var snap bytes.Buffer
	if err := provstore.SaveSnapshot(&snap, leaderDB); err != nil {
		return lc, err
	}
	if r.follower != nil {
		var fs bytes.Buffer
		if err := provstore.SaveSnapshot(&fs, r.follower); err != nil {
			return lc, err
		}
		if !bytes.Equal(fs.Bytes(), snap.Bytes()) {
			res.problem("follower snapshot (%d bytes) differs from the leader's (%d bytes)", fs.Len(), snap.Len())
		}
	}
	lc.acked, lc.rejected, lc.before, lc.after, lc.frames = len(acked), rejected, before, after, frames
	lc.decodeAlloc = r.decodeAlloc
	lc.admissionQueued = admissionQueued(cl, r.leader)
	lc.snapshotBytes = snap.Len()
	if tr != nil {
		if err := r.traceSnapshot(tr, snap.Bytes(), &lc); err != nil {
			return lc, fmt.Errorf("snapshot twin: %w", err)
		}
	}
	if err := recoverRound(c, res, r, cl, snap.Bytes(), &lc); err != nil {
		return lc, err
	}
	checkRound(res, r, acked, reads, whatifs, frames, fresh, live, &lc)
	fmt.Fprintf(os.Stderr, "round: setup %.2fs, timed %.2fs, checks and recovery %.2fs, whatif p50 %.1fms, ingest p50 %.2fms, heap %.1fMB\n", res.setups[len(res.setups)-1], timed, time.Since(ingestStart).Seconds()-timed,
		quantile(whatif.lat[len(whatif.lat)-len(whatifs):], 0.5)*1e3, quantile(ingest.lat[len(ingest.lat)-len(acked):], 0.5)*1e3, res.heaps[len(res.heaps)-1])
	return lc, nil
}

// liveHeapMB collects and returns the live heap.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

func (r *round) whatifKinds() []string {
	if r.deleteAnnot != "" {
		return []string{"abort", "deletion"}
	}
	return []string{"abort"}
}

func (r *round) leaderDB() engine.DB {
	if r.store != nil {
		return r.store
	}
	return r.leader.srv.Engine()
}

func (r *round) leaderHorizon() uint64 { return r.leaderDB().Horizon() }

func (r *round) closeAll() {
	r.subSrv.close()
	if r.subSrv != r.leader {
		r.leader.close()
	}
	if r.follower != nil {
		r.follower.Close()
		r.follower = nil
	}
	if r.store != nil {
		r.store.Close()
		r.store = nil
	}
	if r.walTwin != nil {
		r.walTwin.Close()
		r.walTwin = nil
	}
}

// waitHorizon waits, boundedly, for d's committed horizon to reach seq.
func waitHorizon(d engine.DB, seq uint64) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return d.WaitHorizon(ctx, seq)
}

// waitFollower measures replica lag: from the leader's acknowledgement
// until the follower's horizon covers the leader's committed epoch.
func waitFollower(r *round, ackAt time.Time) (float64, error) {
	target := engine.EpochSeq(engine.SeqEpoch(r.leaderHorizon()))
	if err := waitHorizon(r.follower, target); err != nil {
		return 0, fmt.Errorf("follower wait: %w", err)
	}
	return time.Since(ackAt).Seconds(), nil
}

func isExponentFault(rep reply, body []byte) bool {
	if rep.status != http.StatusBadRequest || !exponentLit.Match(body) {
		return false
	}
	var env struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if json.Unmarshal(rep.body, &env) != nil {
		return false
	}
	return env.Error.Code == "bad_request" && strings.Contains(env.Error.Message, `got "e`)
}

type annotationReply struct {
	Found      bool   `json:"found"`
	Live       bool   `json:"live"`
	Annotation string `json:"annotation"`
}

func doRead(cl *client, r *round, tr *tracer, op int64, rel string, t db.Tuple) (readRec, float64, error) {
	body, _ := json.Marshal(map[string]any{"rel": rel, "tuple": tupleValues(t)})
	root := tr.start("client.read", -1, op)
	rep, err := cl.do("POST", r.leader.url+"/v1/annotation", "application/json", body, root, op)
	tr.end(root)
	if err != nil {
		return readRec{}, 0, fmt.Errorf("read: %w", err)
	}
	if rep.status != http.StatusOK {
		return readRec{}, 0, fmt.Errorf("read %s: %d %s", rel, rep.status, bytes.TrimSpace(rep.body))
	}
	var ar annotationReply
	if err := json.Unmarshal(rep.body, &ar); err != nil {
		return readRec{}, 0, fmt.Errorf("read: %w", err)
	}
	if tr != nil {
		// Twins of the handler's calls, on the served engine.
		e := r.leaderDB()
		var ann *core.Expr
		tr.timed("engine.Annotation", root, op, func() { ann = e.Annotation(rel, t) })
		tr.timed("engine.Dependencies", root, op, func() { engine.Dependencies(e, rel, t) })
		if ann != nil {
			tr.timed("core.Expr.String", root, op, func() { _ = ann.String() })
			tr.timed("upstruct.Eval", root, op, func() {
				upstruct.Eval(ann, upstruct.Bool, func(core.Annot) bool { return true })
			})
		}
	}
	return readRec{rel: rel, tuple: t, found: ar.Found, live: ar.Live}, rep.dur.Seconds(), nil
}

func tupleValues(t db.Tuple) []any {
	out := make([]any, len(t))
	for i, v := range t {
		switch v.Kind() {
		case db.KindInt:
			out[i] = v.Int()
		case db.KindFloat:
			out[i] = v.Float()
		default:
			out[i] = v.Str()
		}
	}
	return out
}

func doWhatif(cl *client, r *round, c *config, tr *tracer, op int64, kind string) (whatifRec, float64, error) {
	var body []byte
	var env upstruct.Env[bool]
	if kind == "abort" {
		body, _ = json.Marshal(map[string]any{"labels": []string{r.abortLabel}})
		env = upstruct.MapEnv(map[core.Annot]bool{core.QueryAnnot(r.abortLabel): false}, true)
	} else {
		body, _ = json.Marshal(map[string]any{"tuples": []string{r.deleteAnnot}})
		env = upstruct.MapEnv(map[core.Annot]bool{core.TupleAnnot(r.deleteAnnot): false}, true)
	}
	u := fmt.Sprintf("%s/v1/whatif/%s?workers=%d", r.leader.url, kind, whatifWorkers)
	root := tr.start("client.whatif", -1, op)
	rep, err := cl.do("POST", u, "application/json", body, root, op)
	tr.end(root)
	if err != nil {
		return whatifRec{}, 0, fmt.Errorf("whatif: %w", err)
	}
	if rep.status != http.StatusOK {
		return whatifRec{}, 0, fmt.Errorf("whatif %s: %d %s", kind, rep.status, bytes.TrimSpace(rep.body))
	}
	if tr != nil {
		tr.timed("engine.BoolRestrictParallel", root, op, func() {
			// Uncancellable context: BoolRestrictParallel cannot fail.
			_, _ = engine.BoolRestrictParallel(context.Background(), r.leaderDB(), env, whatifWorkers)
		})
	}
	if c.corrupt != nil && c.corrupt.whatif != nil {
		rep.body = c.corrupt.whatif(rep.body)
		c.corrupt.whatif = nil
	}
	a0 := totalAlloc()
	g, err := answerDigest(r.schema, rep.body)
	r.decodeAlloc += totalAlloc() - a0
	if err != nil {
		return whatifRec{}, 0, fmt.Errorf("whatif %s: %w", kind, err)
	}
	return whatifRec{kind: kind, got: g, bytes: len(rep.body)}, rep.dur.Seconds(), nil
}

// twinApply feeds an acknowledged transaction to the traced run's
// twins. The served store accepted it, so a twin refusing it is a fault.
func (r *round) twinApply(tr *tracer, op int64, t *db.Transaction) error {
	if tr == nil {
		return nil
	}
	batch := []db.Transaction{*t}
	var errs [3]error
	applyEngine := func() {
		tr.timed("engine.ApplyBatch", -1, op, func() { _, errs[0] = r.twin.ApplyBatch(context.Background(), batch) })
	}
	applyWAL := func() {
		if r.walTwin != nil {
			tr.timed("wal.Store.ApplyBatch", -1, op, func() { _, errs[1] = r.walTwin.ApplyBatch(context.Background(), batch) })
		}
	}
	// The twins alternate which goes first: the first call of a pair
	// wakes idle workers and misses caches the second finds warm.
	if r.twinFlip = !r.twinFlip; r.twinFlip {
		applyEngine()
		applyWAL()
	} else {
		applyWAL()
		applyEngine()
	}
	_, errs[2] = r.naive.ApplyBatch(context.Background(), batch)
	return errors.Join(errs[:]...)
}

// traceSnapshot times the snapshot codec on the leader's state.
func (r *round) traceSnapshot(tr *tracer, snap []byte, lc *layerRound) error {
	var err error
	tr.timed("provstore.SaveSnapshot", -1, 0, func() { err = provstore.SaveSnapshot(io.Discard, r.leaderDB()) })
	if err != nil {
		return err
	}
	tr.timed("provstore.LoadSnapshot", -1, 0, func() { _, err = provstore.LoadSnapshot(bytes.NewReader(snap)) })
	lc.naiveProv = r.naive.ProvSize()
	return err
}

// recoverRound times the return to service from durable state: reopen
// of the closed data directory for a durable leader, snapshot restore
// for the in-memory one. Either way the restored state must serve the
// same snapshot bytes.
func recoverRound(c *config, res *result, r *round, cl *client, snap []byte, lc *layerRound) error {
	rec := res.op("recover")
	want := snap
	check := func(got []byte) {
		if c.corrupt != nil && c.corrupt.snapshot != nil {
			got = c.corrupt.snapshot(got)
		}
		if !bytes.Equal(got, want) {
			res.problem("restored snapshot (%d bytes) differs from the one before (%d bytes)", len(got), len(want))
		}
	}
	if r.store == nil {
		for k := 0; k < r.recovers; k++ {
			rep, err := cl.do("POST", r.leader.url+"/v1/snapshot", "application/octet-stream", snap, -1, 0)
			rec.attempted++
			if err != nil || rep.status != http.StatusOK {
				return fmt.Errorf("snapshot restore: %v %d %s", err, rep.status, rep.body)
			}
			res.recovers = append(res.recovers, rep.dur.Seconds())
			rec.lat = append(rec.lat, rep.dur.Seconds())
			got, err := cl.do("GET", r.leader.url+"/v1/snapshot", "", nil, -1, 0)
			if err != nil || got.status != http.StatusOK {
				return fmt.Errorf("snapshot save: %v", err)
			}
			check(got.body)
		}
		return nil
	}
	lc.storeBytes = dirBytes(r.storeDir)
	// Read before the leader stops serving, which ends the replication
	// stream and counts as a reconnect.
	if r.follower != nil {
		st := r.follower.ReplicaStats()
		lc.followerApplied, lc.followerReconnects = st.RecordsApplied, st.Reconnects
	}
	// Stop serving, then close: the reopen must find everything the
	// acknowledged writes made durable.
	r.subSrv.close()
	if r.subSrv != r.leader {
		r.leader.close()
	}
	r.subSrv, r.leader = nil, nil
	if r.follower != nil {
		r.follower.Close()
		r.follower = nil
	}
	if err := r.store.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	r.store = nil
	for k := 0; k < r.recovers; k++ {
		t0 := time.Now()
		s, err := wal.Open(r.storeDir, r.storeOps...)
		d := time.Since(t0).Seconds()
		rec.attempted++
		if err != nil {
			return fmt.Errorf("reopen: %w", err)
		}
		res.recovers = append(res.recovers, d)
		rec.lat = append(rec.lat, d)
		lc.replayed = s.Stats().Replayed
		var b bytes.Buffer
		err = provstore.SaveSnapshot(&b, s)
		s.Close()
		if err != nil {
			return err
		}
		check(b.Bytes())
	}
	return nil
}

func dirBytes(dir string) (b dirSizes) {
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			continue
		}
		switch {
		case strings.HasSuffix(e.Name(), ".seg"):
			b.log += info.Size()
		case strings.HasSuffix(e.Name(), ".ckpt"):
			b.ckpt += info.Size()
		}
	}
	return b
}

type dirSizes struct{ log, ckpt int64 }

// admissionQueued reads the admission section of /v1/stats: requests
// that waited in an admission queue.
func admissionQueued(cl *client, s *served) uint64 {
	rep, err := cl.do("GET", s.url+"/v1/stats", "", nil, -1, 0)
	if err != nil || rep.status != http.StatusOK {
		return 0
	}
	var st struct {
		Admission struct {
			Classes map[string]struct {
				QueuedTotal uint64 `json:"queued_total"`
			} `json:"classes"`
		} `json:"admission"`
	}
	if json.Unmarshal(rep.body, &st) != nil {
		return 0
	}
	var n uint64
	for _, c := range st.Admission.Classes {
		n += c.QueuedTotal
	}
	return n
}
