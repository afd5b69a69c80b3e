package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"hyperprov/internal/admission"
	"hyperprov/internal/core"
	"hyperprov/internal/db"
	"hyperprov/internal/engine"
	"hyperprov/internal/parser"
	"hyperprov/internal/provstore"
	"hyperprov/internal/upstruct"
	"hyperprov/internal/wal"
)

func (s *Server) handleHealthz(w http.ResponseWriter, req *http.Request) {
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

// handleReadyz is the readiness probe, now a three-state health
// machine (ok → degraded → overloaded):
//
//   - overloaded — the admission controller shed for capacity within
//     its window: 503 overloaded with Retry-After, drain this node.
//   - degraded — queue pressure, a read-only persistent store, or a
//     follower that has not finished its initial sync. The WAL and
//     follower causes keep their historical responses (503 read_only /
//     503 syncing) so balancer configs and clients keep working; pure
//     queue pressure answers 200 with state "degraded" (the node still
//     serves, it is just busy).
//   - ok — 200.
//
// Reads keep answering on the other endpoints in every state, so load
// balancers can drain writes without killing the process.
func (s *Server) handleReadyz(w http.ResponseWriter, req *http.Request) {
	e := s.Engine()
	if s.adm.State() == admission.StateOverloaded {
		w.Header().Set("Retry-After", retryAfterSeconds(s.adm.Window()))
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"ok": false, "state": admission.StateOverloaded.String(),
			"error": errorBody{Code: codeOverloaded, Message: "server is shedding load"},
		})
		return
	}
	state := s.health(e).String()
	switch e := e.(type) {
	case *wal.Store:
		if e.ReadOnly() {
			writeError(w, http.StatusServiceUnavailable, codeReadOnly, "persistent store is read-only: %v", e.Stats().ReadOnlyCause)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"ok": true, "persistent": true, "state": state})
	case *wal.Follower:
		rs := e.ReplicaStats()
		if !rs.Ready {
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{
				"ok": false, "follower": true, "state": state,
				"error": errorBody{Code: codeSyncing, Message: "follower has not finished its initial sync"},
				"lag":   map[string]uint64{"records": rs.LagRecords, "epochs": rs.LagEpochs},
			})
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"ok": true, "persistent": true, "follower": true, "state": state,
			"lag": map[string]uint64{"records": rs.LagRecords, "epochs": rs.LagEpochs},
		})
	default:
		writeJSON(w, http.StatusOK, map[string]any{"ok": true, "persistent": false, "state": state})
	}
}

// handleReplicationStream is the leader's replication endpoint: it
// streams the follower handshake (hello, optionally a checkpoint
// bootstrap) followed by the live CRC-framed record feed, resuming at
// ?from=N. The response flushes after every frame and lives until the
// follower disconnects; it is mounted outside the request timeout.
func (s *Server) handleReplicationStream(w http.ResponseWriter, req *http.Request) {
	st, ok := s.Engine().(*wal.Store)
	if !ok {
		writeError(w, http.StatusConflict, codeNotPersistent, "replication needs a persistent leader store")
		return
	}
	from, _, err := uintQuery(req, "from", "an LSN")
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	// The stream runs until the follower disconnects or DrainStreams
	// cancels it for shutdown; either way the follower redials and
	// resumes, so errors here just end the response.
	ctx, cancel := context.WithCancel(req.Context())
	defer cancel()
	defer context.AfterFunc(s.drainCtx, cancel)()
	if err := st.ServeStream(ctx, w, from); err != nil {
		s.metrics.m.Add("replication_stream.drops", 1)
	}
}

// handleCheckpoint forces a checkpoint of the persistent store: the
// current engine state is written as a snapshot and fully-covered WAL
// segments are pruned. Serving an in-memory engine answers 409
// not_persistent; a degraded store answers 503 read_only.
func (s *Server) handleCheckpoint(w http.ResponseWriter, req *http.Request) {
	if _, ok := s.Engine().(*wal.Follower); ok {
		writeError(w, http.StatusForbidden, codeFollower, "server is a replication follower; checkpoint the leader")
		return
	}
	st, ok := s.Engine().(*wal.Store)
	if !ok {
		writeError(w, http.StatusConflict, codeNotPersistent, "server is not running on a persistent store")
		return
	}
	if err := st.Checkpoint(); err != nil {
		writeEngineError(w, err)
		return
	}
	stats := st.Stats()
	writeJSON(w, http.StatusOK, map[string]any{"lsn": stats.LSN, "checkpointLSN": stats.CheckpointLSN})
}

type attrJSON struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
}

type relationSchemaJSON struct {
	Name  string     `json:"name"`
	Attrs []attrJSON `json:"attrs"`
}

func (s *Server) handleSchema(w http.ResponseWriter, req *http.Request) {
	e := s.Engine()
	schema := e.Schema()
	rels := make([]relationSchemaJSON, 0, len(schema.Names()))
	for _, name := range schema.Names() {
		rel := schema.Relation(name)
		rj := relationSchemaJSON{Name: name}
		for _, a := range rel.Attrs {
			rj.Attrs = append(rj.Attrs, attrJSON{Name: a.Name, Kind: a.Kind.String()})
		}
		rels = append(rels, rj)
	}
	writeJSON(w, http.StatusOK, map[string]any{"mode": e.Mode().String(), "relations": rels})
}

// handleIndexList reports every secondary index with its posting-list
// volume, plus the planner's cumulative counters.
func (s *Server) handleIndexList(w http.ResponseWriter, req *http.Request) {
	e := s.Engine()
	infos := e.IndexStats()
	if infos == nil {
		infos = []engine.IndexInfo{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"indexes": infos,
		"planner": e.PlannerStats(),
	})
}

type indexRequest struct {
	Rel  string `json:"rel"`
	Attr string `json:"attr"`
}

// handleIndexBuild creates a secondary index on {rel, attr}. Building
// an index that already exists is a no-op success; unknown relations
// and attributes answer 404 through the error envelope.
func (s *Server) handleIndexBuild(w http.ResponseWriter, req *http.Request) {
	var ir indexRequest
	if err := s.readBody(w, req, &ir); err != nil {
		writeBodyError(w, err)
		return
	}
	if ir.Rel == "" || ir.Attr == "" {
		writeError(w, http.StatusBadRequest, codeBadRequest, "need rel and attr")
		return
	}
	e := s.Engine()
	if err := e.BuildIndex(ir.Rel, ir.Attr); err != nil {
		writeEngineError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"indexes": e.IndexStats()})
}

// handleIndexDrop removes the index named by ?rel=&attr=; a missing
// index answers 404 with code unknown_index.
func (s *Server) handleIndexDrop(w http.ResponseWriter, req *http.Request) {
	rel := req.URL.Query().Get("rel")
	attr := req.URL.Query().Get("attr")
	if rel == "" || attr == "" {
		writeError(w, http.StatusBadRequest, codeBadRequest, "need rel and attr query parameters")
		return
	}
	if err := s.Engine().DropIndex(rel, attr); err != nil {
		writeEngineError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"dropped": true})
}

// minEpochWait bounds how long a ?min_epoch= fenced read blocks for the
// horizon to catch up before answering 503 replica_lagging. Long enough
// to absorb normal replication lag, short enough that a stalled replica
// fails fast.
const minEpochWait = time.Second

// asOfReader resolves the optional ?as_of= query parameter (an epoch
// number, as reported by mvccHorizonEpoch in /v1/stats) to the reader
// the request runs against: the live engine when absent, an MVCC view
// pinned at the end of that epoch otherwise. Time travel is free —
// views share the engine's version chains — and lock-free against
// concurrent ingestion. Epochs beyond the committed horizon answer
// 400; ok=false means the error response has been written.
//
// ?min_epoch=N fences stale reads: the request proceeds only once the
// serving engine's committed horizon covers epoch N, waiting up to
// minEpochWait and then answering 503 replica_lagging. On a follower
// this is the read-your-writes guard — a client that wrote through the
// leader (observing its mvccHorizonEpoch) passes that epoch here and
// never reads a replica state older than its own write; on the leader
// the fence is satisfied immediately.
func (s *Server) asOfReader(w http.ResponseWriter, req *http.Request) (engine.Reader, bool) {
	e := s.Engine()
	if n, present, err := uintQuery(req, "min_epoch", "an epoch number"); err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "%v", err)
		return nil, false
	} else if present {
		seq := engine.EpochSeq(n)
		if e.Horizon() < seq {
			ctx, cancel := context.WithTimeout(req.Context(), minEpochWait)
			_ = e.WaitHorizon(ctx, seq)
			cancel()
		}
		if h := engine.SeqEpoch(e.Horizon()); h < n {
			writeError(w, http.StatusServiceUnavailable, codeReplicaLagging, "committed horizon epoch %d has not reached min_epoch %d", h, n)
			return nil, false
		}
	}
	n, present, err := uintQuery(req, "as_of", "an epoch number")
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "%v", err)
		return nil, false
	}
	if !present {
		return e, true
	}
	if h := engine.SeqEpoch(e.Horizon()); n > h {
		writeError(w, http.StatusBadRequest, codeBadRequest, "as_of epoch %d is beyond the committed horizon epoch %d", n, h)
		return nil, false
	}
	return e.At(engine.EpochSeq(n)), true
}

type annotationRequest struct {
	Rel      string `json:"rel"`
	Tuple    []any  `json:"tuple"`
	Minimize bool   `json:"minimize"`
	Explain  bool   `json:"explain"`
}

type dependenciesJSON struct {
	Tuples       []string `json:"tuples"`
	Transactions []string `json:"transactions"`
}

type annotationResponse struct {
	Found        bool             `json:"found"`
	Live         bool             `json:"live,omitempty"`
	Annotation   string           `json:"annotation,omitempty"`
	Size         int64            `json:"size,omitempty"`
	Explain      string           `json:"explain,omitempty"`
	Dependencies dependenciesJSON `json:"dependencies"`
}

// handleAnnotation answers "why is this tuple (not) in the database?":
// the stored provenance expression, its liveness under the all-true
// valuation, its input-tuple and transaction dependencies, and
// optionally the Explain rendering. ?as_of=N answers against the
// database as of epoch N — "why was this tuple here then?".
func (s *Server) handleAnnotation(w http.ResponseWriter, req *http.Request) {
	var ar annotationRequest
	if err := s.readBody(w, req, &ar); err != nil {
		writeBodyError(w, err)
		return
	}
	e, ok := s.asOfReader(w, req)
	if !ok {
		return
	}
	rel := e.Schema().Relation(ar.Rel)
	if rel == nil {
		writeError(w, http.StatusNotFound, codeUnknownRelation, "unknown relation %q", ar.Rel)
		return
	}
	t, err := parseTuple(rel, ar.Tuple)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadTuple, "%v", err)
		return
	}
	ann := e.Annotation(ar.Rel, t)
	if ann == nil {
		writeJSON(w, http.StatusOK, annotationResponse{Found: false})
		return
	}
	if ar.Minimize {
		ann = core.Minimize(ann)
	}
	resp := annotationResponse{
		Found:      true,
		Live:       upstruct.Eval(ann, upstruct.Bool, func(core.Annot) bool { return true }),
		Annotation: ann.String(),
		Size:       ann.Size(),
	}
	if ar.Explain {
		resp.Explain = core.ExplainString(ann)
	}
	tuples, txns := engine.Dependencies(e, ar.Rel, t)
	resp.Dependencies = dependenciesJSON{Tuples: annotNames(tuples), Transactions: annotNames(txns)}
	writeJSON(w, http.StatusOK, resp)
}

func annotNames(as []core.Annot) []string {
	out := make([]string, len(as))
	for i, a := range as {
		out[i] = a.Name
	}
	return out
}

// writeRestriction answers the database selected by a Boolean
// valuation — the body shared by the db and what-if endpoints, against
// the live engine or an ?as_of= view resolved by the caller. One
// chunked parallel pass renders every hit's JSON straight into its
// chunk's buffer (engine.BoolRestrictAppend); the buffers are then
// written in encoding/json's layout of
// {"relations":{name:{"attrs":[…],"tuples":[…]}},"numTuples":n}:
// relations in sorted-name order, chunks in row order, a relation
// without hits as "tuples":[], and the encoder's trailing newline. The
// bytes equal encoding/json's rendering of the materialized database,
// with no db.Database built and no reflection. The workers parameter
// and request-context cancellation become envelope errors; nothing is
// written before the pass has finished.
func (s *Server) writeRestriction(w http.ResponseWriter, req *http.Request, e engine.Reader, env upstruct.Env[bool]) {
	workers, err := workersParam(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "%v", err)
		return
	}
	var unencodable atomic.Bool
	chunks, err := engine.BoolRestrictAppend(req.Context(), e, env, workers, func(dst []byte, t db.Tuple) []byte {
		// Every hit carries its leading separator; the first hit of a
		// relation drops it below.
		dst, ok := appendJSONTuple(append(dst, ','), t)
		if !ok {
			unencodable.Store(true)
		}
		return dst
	})
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, codeCanceled, "%v", err)
		return
	}
	if unencodable.Load() {
		writeError(w, http.StatusInternalServerError, codeInternal, "answer holds a NaN or infinite float, which JSON cannot represent")
		return
	}
	byRel := make(map[string][]engine.RestrictChunk, len(chunks))
	numTuples := 0
	for _, c := range chunks {
		byRel[c.Rel] = append(byRel[c.Rel], c)
		numTuples += c.Hits
	}
	schema := e.Schema()
	names := slices.Clone(schema.Names())
	slices.Sort(names)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	// Framing accumulates in b and is flushed before each chunk buffer,
	// which is written as is.
	b := []byte(`{"relations":{`)
	for i, name := range names {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONString(b, name)
		b = append(b, `:{"attrs":[`...)
		for k, a := range schema.Relation(name).Attrs {
			if k > 0 {
				b = append(b, ',')
			}
			b = appendJSONString(b, a.Name)
		}
		b = append(b, `],"tuples":[`...)
		first := true
		for _, c := range byRel[name] {
			if c.Hits == 0 {
				continue
			}
			buf := c.Buf
			if first {
				buf, first = buf[1:], false
			}
			_, _ = w.Write(b)
			_, _ = w.Write(buf)
			b = b[:0]
		}
		b = append(b, "]}"...)
	}
	b = append(b, `},"numTuples":`...)
	b = strconv.AppendInt(b, int64(numTuples), 10)
	b = append(b, "}\n"...)
	_, _ = w.Write(b)
}

// handleDB serves the live database — the all-true valuation — with
// parallel evaluation. ?as_of=N serves the database as of epoch N.
func (s *Server) handleDB(w http.ResponseWriter, req *http.Request) {
	e, ok := s.asOfReader(w, req)
	if !ok {
		return
	}
	s.writeRestriction(w, req, e, func(core.Annot) bool { return true })
}

type deletionRequest struct {
	Tuples []string `json:"tuples"`
}

// handleDeletion answers the Section 4.1 deletion-propagation what-if:
// the database had the named input-tuple annotations never existed,
// computed by valuation without re-running the log. ?as_of=N asks the
// hypothetical against the database as of epoch N.
func (s *Server) handleDeletion(w http.ResponseWriter, req *http.Request) {
	var dr deletionRequest
	if err := s.readBody(w, req, &dr); err != nil {
		writeBodyError(w, err)
		return
	}
	if len(dr.Tuples) == 0 {
		writeError(w, http.StatusBadRequest, codeBadRequest, "no tuple annotations given")
		return
	}
	e, ok := s.asOfReader(w, req)
	if !ok {
		return
	}
	dead := make(map[core.Annot]bool, len(dr.Tuples))
	for _, name := range dr.Tuples {
		dead[core.TupleAnnot(name)] = false
	}
	s.writeRestriction(w, req, e, upstruct.MapEnv(dead, true))
}

type abortRequest struct {
	Labels []string `json:"labels"`
}

// handleAbort answers the transaction-abortion what-if: the database
// had the labelled transactions been aborted. ?as_of=N asks the
// hypothetical against the database as of epoch N.
func (s *Server) handleAbort(w http.ResponseWriter, req *http.Request) {
	var ar abortRequest
	if err := s.readBody(w, req, &ar); err != nil {
		writeBodyError(w, err)
		return
	}
	if len(ar.Labels) == 0 {
		writeError(w, http.StatusBadRequest, codeBadRequest, "no transaction labels given")
		return
	}
	e, ok := s.asOfReader(w, req)
	if !ok {
		return
	}
	dead := make(map[core.Annot]bool, len(ar.Labels))
	for _, l := range ar.Labels {
		dead[core.QueryAnnot(l)] = false
	}
	s.writeRestriction(w, req, e, upstruct.MapEnv(dead, true))
}

// handleIngest parses the request body as a transaction log (SQL
// fragment by default, ?syntax=datalog for the paper's notation) and
// applies it. Read endpoints pin the MVCC horizon at entry and never
// block while a large log streams in; each batch publishes atomically
// when it commits. The response (and, on failure or client
// disconnection, the error envelope) reports how many transactions
// were durably applied — the caller may safely resubmit the rest.
func (s *Server) handleIngest(w http.ResponseWriter, req *http.Request) {
	req.Body = http.MaxBytesReader(w, req.Body, s.maxBody)
	src, err := io.ReadAll(req.Body)
	if err != nil {
		writeBodyError(w, fmt.Errorf("reading log: %w", err))
		return
	}
	e := s.Engine()
	var txns []db.Transaction
	switch syntax := req.URL.Query().Get("syntax"); syntax {
	case "", "sql":
		txns, err = parser.ParseSQLLog(e.Schema(), string(src))
	case "datalog":
		txns, err = parser.ParseDatalogLog(e.Schema(), string(src))
	default:
		writeError(w, http.StatusBadRequest, codeBadRequest, "unknown syntax %q", syntax)
		return
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "parsing log: %v", err)
		return
	}
	applied, err := e.ApplyBatch(req.Context(), txns)
	if err != nil {
		writeEngineErrorApplied(w, err, applied)
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{
		"transactions": len(txns),
		"applied":      applied,
		"queries":      db.CountQueries(txns),
	})
}

// handleSnapshotSave streams the annotated database in the provstore
// binary format — one consistent MVCC cut pinned at entry, with
// deterministic bytes. ?as_of=N streams the database as it stood at
// the end of epoch N.
func (s *Server) handleSnapshotSave(w http.ResponseWriter, req *http.Request) {
	e, ok := s.asOfReader(w, req)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	if err := provstore.SaveSnapshot(w, e); err != nil {
		// The 200 header and part of the binary body may already be on
		// the wire, so a JSON error envelope appended here would corrupt
		// the download into something that half-parses. Abort the
		// connection instead: the client's load fails on the truncated
		// stream.
		s.metrics.m.Add("snapshot_save.aborts", 1)
		panic(http.ErrAbortHandler)
	}
}

// ctxReader propagates request-context cancellation into a blocking
// body read, so a disconnected client stops a snapshot load promptly
// instead of after the next short read.
type ctxReader struct {
	ctx context.Context
	r   io.Reader
}

func (c ctxReader) Read(p []byte) (int, error) {
	if err := c.ctx.Err(); err != nil {
		return 0, err
	}
	return c.r.Read(p)
}

// limitReader records whether an http.MaxBytesReader underneath it hit
// its cap, for callers whose downstream decoder hides the error chain.
type limitReader struct {
	r   io.Reader
	hit bool
}

func (l *limitReader) Read(p []byte) (int, error) {
	n, err := l.r.Read(p)
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		l.hit = true
	}
	return n, err
}

// handleSnapshotLoad restores a snapshot and atomically swaps it in as
// the served engine; in-flight requests finish against the old one.
// ?shards=N restores into a hash-sharded engine (default: the single
// engine); the snapshot bytes are identical either way.
func (s *Server) handleSnapshotLoad(w http.ResponseWriter, req *http.Request) {
	if _, ok := s.Engine().(*wal.Store); ok {
		// Swapping an in-memory engine over a persistent store would
		// silently fork the served state from the WAL on disk.
		writeError(w, http.StatusConflict, codeNotPersistent, "server is running on a persistent store; snapshot load would desync it from the log")
		return
	}
	if _, ok := s.Engine().(*wal.Follower); ok {
		// Same desync hazard, plus the apply loop would keep writing to
		// the store the swap just abandoned.
		writeError(w, http.StatusForbidden, codeFollower, "server is a replication follower; its state comes from the leader")
		return
	}
	var opts []engine.Option
	if n, present, err := posIntQuery(req, "shards", "a positive integer"); err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "%v", err)
		return
	} else if present {
		opts = append(opts, engine.WithShards(n))
	}
	// The snapshot decoder wraps reader errors in its own context, so a
	// limit hit is recorded by the tracking reader rather than recovered
	// from the error chain.
	lr := &limitReader{r: http.MaxBytesReader(w, req.Body, s.maxBody)}
	e, err := provstore.LoadSnapshot(ctxReader{ctx: req.Context(), r: lr}, opts...)
	if err != nil {
		if lr.hit {
			writeError(w, http.StatusRequestEntityTooLarge, codeBodyTooLarge,
				"snapshot exceeds the %d-byte limit", s.maxBody)
			return
		}
		if req.Context().Err() != nil {
			writeError(w, http.StatusServiceUnavailable, codeCanceled, "loading snapshot: %v", err)
			return
		}
		writeError(w, http.StatusBadRequest, codeBadRequest, "loading snapshot: %v", err)
		return
	}
	s.setEngine(e)
	writeJSON(w, http.StatusOK, map[string]any{"rows": e.NumRows(), "mode": e.Mode().String()})
}
