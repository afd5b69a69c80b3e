package wal

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hyperprov/internal/core"
	"hyperprov/internal/db"
	"hyperprov/internal/engine"
	"hyperprov/internal/provstore"
)

// Sentinel errors; test with errors.Is.
var (
	// ErrReadOnly reports that a persistent append or fsync failed and
	// the store degraded to read-only. The wrapped message carries the
	// original cause.
	ErrReadOnly = errors.New("wal: store is read-only after a durability failure")
	// ErrLocked reports that another process holds the data directory.
	ErrLocked = errors.New("wal: data directory is locked")
	// ErrCorrupt reports unrecoverable damage: a corrupt record with
	// intact history after it, a broken segment chain, or an unloadable
	// checkpoint that acknowledged records depend on.
	ErrCorrupt = errors.New("wal: log is corrupt")
	// ErrClosed reports an operation on a closed store.
	ErrClosed = errors.New("wal: store is closed")
)

// SyncPolicy selects when appended records are fsynced.
type SyncPolicy uint8

const (
	// SyncAlways fsyncs on every commit (one fsync per batch for
	// ApplyAll — group commit). Acknowledged writes survive power loss.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs on a background timer; a crash can lose up to
	// one interval of acknowledged writes, never corrupt the log.
	SyncInterval
	// SyncNever leaves fsync to the OS. Process crashes lose nothing
	// already written to the kernel; power loss can lose everything
	// since the last checkpoint.
	SyncNever
)

// String names the policy as accepted by ParseSyncPolicy.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", uint8(p))
	}
}

// ParseSyncPolicy parses "always", "interval" or "never".
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	default:
		return SyncAlways, fmt.Errorf("wal: unknown sync policy %q (want always, interval or never)", s)
	}
}

// options collects Open configuration.
type options struct {
	mode      engine.Mode
	schema    *db.Schema
	initial   *db.Database
	engOpts   []engine.Option
	sync      SyncPolicy
	interval  time.Duration
	segSize   int64
	ckptEach  uint64
	heartbeat time.Duration
	fs        FS

	// Follower resilience knobs (ignored by leader stores).
	redialBase      time.Duration
	redialCap       time.Duration
	redialRand      func() float64 // injectable jitter source for tests
	breakerBudget   int
	breakerCooldown time.Duration
	stallTimeout    time.Duration
}

// Option configures Open.
type Option func(*options)

// WithMode selects the provenance mode for a new store. Ignored when
// the directory already exists — the persisted mode wins.
func WithMode(m engine.Mode) Option { return func(o *options) { o.mode = m } }

// WithSchema supplies the schema for bootstrapping an empty store.
func WithSchema(s *db.Schema) Option { return func(o *options) { o.schema = s } }

// WithInitialDatabase bootstraps a new store from an initial database;
// its rows become the initial checkpoint. Ignored when the directory
// already holds a store.
func WithInitialDatabase(d *db.Database) Option { return func(o *options) { o.initial = d } }

// WithEngineOptions passes options (sharding, auto-indexing, ...) to
// the underlying engine on every open. The shard count may differ
// between opens: snapshot and log bytes are engine-shape independent.
func WithEngineOptions(opts ...engine.Option) Option {
	return func(o *options) { o.engOpts = append(o.engOpts, opts...) }
}

// WithSync selects the fsync policy (default SyncAlways).
func WithSync(p SyncPolicy) Option { return func(o *options) { o.sync = p } }

// WithSyncInterval sets the SyncInterval timer period (default 50ms).
func WithSyncInterval(d time.Duration) Option { return func(o *options) { o.interval = d } }

// WithSegmentSize sets the log segment rotation threshold in bytes
// (default 16 MiB).
func WithSegmentSize(n int64) Option { return func(o *options) { o.segSize = n } }

// WithCheckpointEvery checkpoints automatically after every n appended
// records (0, the default, disables automatic checkpoints).
func WithCheckpointEvery(n uint64) Option { return func(o *options) { o.ckptEach = n } }

// WithHeartbeatEvery sets how often an idle replication stream sends a
// heartbeat frame (default 500ms). Heartbeats carry the leader LSN and
// committed horizon, so followers can report lag even with no writes.
func WithHeartbeatEvery(d time.Duration) Option { return func(o *options) { o.heartbeat = d } }

// WithFS substitutes the filesystem — the fault-injection hook.
func WithFS(fs FS) Option { return func(o *options) { o.fs = fs } }

// WithRedialBackoff bounds a follower's redial schedule: delays are
// full-jitter exponential, uniform in [0, min(cap, base·2ⁿ)), so N
// replicas that lose their leader together spread their reconnects
// across the window instead of redialing in lockstep. Defaults: 50ms
// base, 2s cap. Ignored by leader stores.
func WithRedialBackoff(base, cap time.Duration) Option {
	return func(o *options) {
		o.redialBase = base
		o.redialCap = cap
	}
}

// WithReconnectBudget arms a follower's redial circuit breaker: after
// budget consecutive sessions that made no progress the follower stops
// dialing for cooldown (then probes once, half-open). Zero budget (the
// default) disables the breaker — the follower redials forever on
// backoff alone. Ignored by leader stores.
func WithReconnectBudget(budget int, cooldown time.Duration) Option {
	return func(o *options) {
		o.breakerBudget = budget
		o.breakerCooldown = cooldown
	}
}

// WithStreamStallTimeout bounds how long a follower session waits for
// the next frame before declaring the link dead and redialing. Idle
// leaders heartbeat every WithHeartbeatEvery (default 500ms), so a
// healthy stream is never silent for long — the timeout catches
// network partitions that blackhole the connection without closing it.
// Default 10s; 0 or negative waits forever (the pre-partition-aware
// behavior). Ignored by leader stores.
func WithStreamStallTimeout(d time.Duration) Option {
	return func(o *options) { o.stallTimeout = d }
}

// Store is a durable provenance engine: an engine.DB whose write
// methods append to a write-ahead log before (transactions) or after
// (minimize, index builds) taking effect, with checkpointing and crash
// recovery. It implements engine.DB, so everything that runs against an
// engine runs against a Store.
type Store struct {
	dir string
	fs  FS

	mu sync.Mutex
	// eng holds the served engine behind an atomic pointer: writers
	// (bootstrap, recovery, follower resync) swap it under mu, but the
	// lock-free read surface loads it without the lock — a follower
	// resync replacing the engine must not race pinned readers.
	eng       atomic.Pointer[engine.DB]
	lw        *logWriter
	lsn       uint64 // next LSN to assign
	ckptLSN   uint64 // records below this are in the latest checkpoint
	sinceCkpt uint64
	closed    bool
	release   func() // directory lock
	hasInit   bool   // bootstrap database had rows (lives in META)

	// Replication: registered follower streams. Each handle's position
	// fences log pruning; attached handles receive committed records.
	streams map[*streamHandle]struct{}

	readOnly atomic.Bool
	roCause  atomic.Value // error

	stopSync chan struct{}
	syncWG   sync.WaitGroup

	opts options

	// counters (atomic: read by Stats without mu)
	appended  atomic.Uint64
	syncs     atomic.Uint64
	ckpts     atomic.Uint64
	ckptFails atomic.Uint64
	replayed  uint64 // set once during Open
	truncated int64  // torn-tail bytes discarded during Open
	recovered bool

	// replication counters
	streamsServed  atomic.Uint64
	resyncsServed  atomic.Uint64
	streamLagDrops atomic.Uint64

	// hook is the commit-event subscriber, re-installed on every engine
	// this store serves (recovery and follower resyncs swap engines;
	// the subscriber must not notice beyond a reset event).
	hookMu sync.Mutex
	hook   engine.CommitHook
}

var _ engine.DB = (*Store)(nil)

// engine loads the served engine without taking mu — the read
// delegation surface is lock-free, exactly like the engine itself.
func (s *Store) engine() engine.DB {
	if p := s.eng.Load(); p != nil {
		return *p
	}
	return nil
}

// setEngine swaps the served engine. Callers hold mu (or, during
// Open/bootstrap, have exclusive ownership of the store). A commit
// hook installed on the store moves to the new engine, and the swap is
// announced to it as a CommitReset at the new engine's horizon:
// subscribers must rebuild, exactly as after a follower resync.
func (s *Store) setEngine(e engine.DB) {
	s.hookMu.Lock()
	h := s.hook
	s.hookMu.Unlock()
	if e != nil && h != nil {
		e.SetCommitHook(h)
	}
	s.eng.Store(&e)
	if e != nil && h != nil {
		hz := e.Horizon()
		h(engine.CommitEvent{Kind: engine.CommitReset, Epoch: engine.SeqEpoch(hz), Seq: hz})
	}
}

// SetCommitHook implements engine.DB: the hook is installed on the
// engine currently served and survives engine swaps (recovery,
// follower resync), each announced as a CommitReset.
func (s *Store) SetCommitHook(h engine.CommitHook) {
	s.hookMu.Lock()
	s.hook = h
	s.hookMu.Unlock()
	if e := s.engine(); e != nil {
		e.SetCommitHook(h)
	}
}

// StoreStats is a point-in-time summary of the durability subsystem.
type StoreStats struct {
	Dir            string `json:"dir"`
	Sync           string `json:"sync"`
	LSN            uint64 `json:"lsn"`
	CheckpointLSN  uint64 `json:"checkpoint_lsn"`
	Appended       uint64 `json:"appended"`
	Syncs          uint64 `json:"syncs"`
	Checkpoints    uint64 `json:"checkpoints"`
	CheckpointErrs uint64 `json:"checkpoint_failures"`
	Recovered      bool   `json:"recovered"`
	Replayed       uint64 `json:"replayed_records"`
	TruncatedTail  int64  `json:"truncated_tail_bytes"`
	ReadOnly       bool   `json:"read_only"`
	ReadOnlyCause  string `json:"read_only_cause,omitempty"`

	// Leader-side replication counters.
	ActiveStreams  int    `json:"active_streams"`
	StreamsServed  uint64 `json:"streams_served"`
	ResyncsServed  uint64 `json:"resyncs_served"`
	StreamLagDrops uint64 `json:"stream_lag_drops"`
}

// Open opens (or bootstraps) the persistent store in dir. A fresh
// directory needs WithSchema or WithInitialDatabase; an existing one
// recovers from its latest checkpoint plus the log suffix. The
// directory is locked against concurrent opens for the lifetime of the
// store.
func Open(dir string, opts ...Option) (*Store, error) {
	o := options{
		mode:      engine.ModeNormalForm,
		sync:      SyncAlways,
		interval:  50 * time.Millisecond,
		segSize:   16 << 20,
		heartbeat: 500 * time.Millisecond,
		fs:        OSFS{},
	}
	for _, opt := range opts {
		opt(&o)
	}
	if o.segSize < 1<<10 {
		o.segSize = 1 << 10
	}
	if o.heartbeat <= 0 {
		o.heartbeat = 500 * time.Millisecond
	}
	if err := o.fs.MkdirAll(dir); err != nil {
		return nil, err
	}
	release, err := lockDir(dir)
	if err != nil {
		return nil, err
	}
	s := &Store{dir: dir, fs: o.fs, release: release, opts: o}
	if err := s.open(); err != nil {
		release()
		return nil, err
	}
	s.startSyncLoop()
	return s, nil
}

// startSyncLoop launches the SyncInterval timer when the policy asks
// for one. No-op for the other policies.
func (s *Store) startSyncLoop() {
	if s.opts.sync != SyncInterval {
		return
	}
	s.stopSync = make(chan struct{})
	s.syncWG.Add(1)
	go s.syncLoop()
}

func (s *Store) open() error {
	meta, err := readMeta(s.fs, s.dir)
	if errors.Is(err, errNoMeta) {
		return s.bootstrap()
	}
	if err != nil {
		return err
	}
	return s.recover(meta)
}

// bootstrap initialises a fresh data directory: META, an initial
// checkpoint when the bootstrap database has rows, and the first log
// segment. Refuses a directory that already holds store files without
// a META (a half-deleted or foreign directory).
func (s *Store) bootstrap() error {
	names, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return err
	}
	// A store writes META before its first segment, so segments (or a
	// post-bootstrap checkpoint) without a META mean a half-deleted or
	// foreign directory — refuse. A lone LSN-0 checkpoint or temp file
	// is an interrupted bootstrap that never completed: clean it up and
	// bootstrap again.
	var leftovers []string
	for _, name := range names {
		if _, ok := parseSeqName(name, segPrefix, segSuffix); ok {
			return fmt.Errorf("%w: %s has log segments but no META", ErrCorrupt, s.dir)
		}
		if v, ok := parseSeqName(name, ckptPrefix, ckptSuffix); ok {
			if v != 0 {
				return fmt.Errorf("%w: %s has checkpoints but no META", ErrCorrupt, s.dir)
			}
			leftovers = append(leftovers, name)
		}
		if name == "checkpoint.tmp" || name == "META.tmp" {
			leftovers = append(leftovers, name)
		}
	}
	for _, name := range leftovers {
		if err := s.fs.Remove(filepath.Join(s.dir, name)); err != nil {
			return err
		}
	}
	initial := s.opts.initial
	if initial == nil {
		if s.opts.schema == nil {
			return fmt.Errorf("wal: a new store needs WithSchema or WithInitialDatabase")
		}
		initial = db.NewDatabase(s.opts.schema)
	}
	s.setEngine(engine.Open(s.opts.mode, initial, s.opts.engOpts...))
	hasInit := s.engine().NumRows() > 0
	if hasInit {
		// The bootstrap rows exist only in memory; a checkpoint is the
		// sole durable copy, so its failure fails Open.
		if err := s.writeCheckpoint(0); err != nil {
			return fmt.Errorf("wal: initial checkpoint: %w", err)
		}
	}
	if err := writeMeta(s.fs, s.dir, s.engine().Mode(), s.engine().Schema(), hasInit); err != nil {
		return err
	}
	s.hasInit = hasInit
	lw, err := openLogWriter(s.fs, s.dir, s.opts.segSize, 0, 0, 0, 0)
	if err != nil {
		return err
	}
	s.lw = lw
	return nil
}

// recover rebuilds the engine from the newest loadable checkpoint plus
// the log suffix. Tail damage in the final segment is truncated; damage
// anywhere else is ErrCorrupt.
func (s *Store) recover(meta *metaInfo) error {
	s.recovered = true
	s.hasInit = meta.hasInit
	ckptSeqs, err := listSeqFiles(s.fs, s.dir, ckptPrefix, ckptSuffix)
	if err != nil {
		return err
	}
	// Newest loadable checkpoint wins. An older checkpoint is only
	// usable if the log still covers the records after it, which the
	// segment-chain walk below verifies against replayStart.
	var replayStart uint64
	var loadErr error
	s.setEngine(nil)
	for i := len(ckptSeqs) - 1; i >= 0; i-- {
		data, err := s.fs.ReadFile(filepath.Join(s.dir, ckptName(ckptSeqs[i])))
		if err != nil {
			loadErr = err
			continue
		}
		eng, err := provstore.LoadSnapshot(bytes.NewReader(data), s.opts.engOpts...)
		if err != nil {
			loadErr = err
			continue
		}
		s.setEngine(eng)
		replayStart = ckptSeqs[i]
		break
	}
	if s.engine() == nil {
		if len(ckptSeqs) > 0 {
			return fmt.Errorf("%w: no loadable checkpoint: %v", ErrCorrupt, loadErr)
		}
		if meta.hasInit {
			return fmt.Errorf("%w: initial checkpoint is missing", ErrCorrupt)
		}
		s.setEngine(engine.OpenEmpty(meta.mode, meta.schema, s.opts.engOpts...))
	}

	segs, err := listSeqFiles(s.fs, s.dir, segPrefix, segSuffix)
	if err != nil {
		return err
	}
	// Start at the last segment that could contain replayStart.
	startIdx := 0
	found := len(segs) == 0
	for i, start := range segs {
		if start <= replayStart {
			startIdx = i
			found = true
		}
	}
	if !found {
		return fmt.Errorf("%w: log starts at %d, checkpoint covers %d", ErrCorrupt, segs[0], replayStart)
	}

	nextLSN := replayStart
	var segStart, segCount uint64
	var segBytes int64
	expect := uint64(0)
	for i := startIdx; i < len(segs); i++ {
		start := segs[i]
		if i > startIdx && start != expect {
			if start < expect || start > replayStart {
				return fmt.Errorf("%w: segment chain broken at %d (expected %d)", ErrCorrupt, start, expect)
			}
			// The gap holds only records the checkpoint covers: a crash
			// interrupted pruning. Benign.
		}
		path := filepath.Join(s.dir, segName(start))
		data, err := s.fs.ReadFile(path)
		if err != nil {
			return err
		}
		sc := scanSegment(data)
		final := i == len(segs)-1
		if sc.midlog {
			return fmt.Errorf("%w: damaged record inside %s with intact records after it", ErrCorrupt, segName(start))
		}
		if sc.torn {
			if !final {
				return fmt.Errorf("%w: damaged tail in non-final segment %s", ErrCorrupt, segName(start))
			}
			s.truncated = int64(len(data)) - sc.goodLen
			if err := s.fs.Truncate(path, sc.goodLen); err != nil {
				return err
			}
		}
		for j, payload := range sc.records {
			lsn := start + uint64(j)
			if lsn < replayStart {
				continue
			}
			if err := s.replayRecord(payload); err != nil {
				return fmt.Errorf("%w: record %d: %v", ErrCorrupt, lsn, err)
			}
			s.replayed++
		}
		expect = start + uint64(len(sc.records))
		if expect > nextLSN {
			nextLSN = expect
		}
		segStart, segCount, segBytes = start, uint64(len(sc.records)), sc.goodLen
	}
	s.lsn = nextLSN
	s.ckptLSN = replayStart
	lw, err := openLogWriter(s.fs, s.dir, s.opts.segSize, segStart, segBytes, segCount, nextLSN)
	if err != nil {
		return err
	}
	s.lw = lw
	return nil
}

// replayRecord re-applies one decoded record. Transaction and index
// replay errors are deterministic re-runs of errors the original
// process already returned, so they are not failures; decode and
// restore errors mean the log does not match the schema — corruption.
func (s *Store) replayRecord(payload []byte) error {
	rec, err := decodeRecord(payload)
	if err != nil {
		return err
	}
	return s.applyDecoded(rec)
}

// applyDecoded applies one already-decoded record to the engine — the
// shared tail of recovery replay and replicated apply.
func (s *Store) applyDecoded(rec *Record) error {
	switch rec.Type {
	case recTxn:
		_ = s.engine().ApplyTransaction(rec.Txn)
	case recRestore:
		if err := s.engine().RestoreRow(rec.Rel, rec.Tuple, rec.Ann); err != nil {
			return err
		}
	case recMinimize:
		if _, err := s.engine().MinimizeAll(context.Background()); err != nil {
			return err
		}
	case recBuildIndex:
		_ = s.engine().BuildIndex(rec.Rel, rec.Attr)
	case recDropIndex:
		_ = s.engine().DropIndex(rec.Rel, rec.Attr)
	}
	return nil
}

// --- write path ---------------------------------------------------------

// roError returns the typed read-only error carrying the first cause.
func (s *Store) roError() error {
	if cause, ok := s.roCause.Load().(error); ok {
		return fmt.Errorf("%w (cause: %w)", ErrReadOnly, cause)
	}
	return ErrReadOnly
}

// degradeLocked flips the store to read-only after a durability
// failure and returns the typed error. In-memory state stays readable;
// only the first cause is kept.
func (s *Store) degradeLocked(cause error) error {
	if s.readOnly.CompareAndSwap(false, true) {
		s.roCause.Store(cause)
	}
	return s.roError()
}

// commitLocked makes the appended records as durable as the sync
// policy promises: fsync for SyncAlways, flush-to-OS otherwise.
func (s *Store) commitLocked() error {
	if s.opts.sync == SyncAlways {
		if err := s.lw.sync(); err != nil {
			return err
		}
		s.syncs.Add(1)
		return nil
	}
	return s.lw.flush()
}

// appendLocked appends payloads and commits them per the sync policy
// (one fsync for the whole group). On failure the store degrades to
// read-only: the log may hold a prefix of the group, so no further
// writes can be acknowledged safely.
func (s *Store) appendLocked(payloads ...[]byte) error {
	if s.closed {
		return ErrClosed
	}
	if s.readOnly.Load() {
		return s.roError()
	}
	for _, p := range payloads {
		if err := s.lw.append(p); err != nil {
			return s.degradeLocked(err)
		}
	}
	if err := s.commitLocked(); err != nil {
		return s.degradeLocked(err)
	}
	base := s.lsn
	s.lsn += uint64(len(payloads))
	s.sinceCkpt += uint64(len(payloads))
	s.appended.Add(uint64(len(payloads)))
	// Committed (flushed at minimum): safe to fan out to followers.
	s.publishStreamLocked(base, payloads)
	return nil
}

// checkTxn mirrors the engine's static apply checks (the only errors
// ApplyTransaction can return). Transactions that pass never fail to
// apply, which keeps the batched path deterministic; transactions that
// fail are applied sequentially so the engine's partial-effect
// semantics — and its error text — are preserved exactly.
func (s *Store) checkTxn(t *db.Transaction) bool {
	schema := s.engine().Schema()
	for i := range t.Updates {
		u := &t.Updates[i]
		if schema.Relation(u.Rel) == nil {
			return false
		}
		switch u.Kind {
		case db.OpInsert, db.OpDelete, db.OpModify:
		default:
			return false
		}
	}
	return true
}

// ApplyTransaction logs the transaction, commits it per the sync
// policy, then applies it to the engine. The engine's apply errors are
// deterministic, so a logged transaction that fails mid-way replays to
// the identical partial state.
func (s *Store) ApplyTransaction(t *db.Transaction) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applyTxnLocked(t)
}

func (s *Store) applyTxnLocked(t *db.Transaction) error {
	if err := s.appendLocked(encodeTxn(t)); err != nil {
		return err
	}
	err := s.engine().ApplyTransaction(t)
	s.maybeCheckpointLocked()
	return err
}

// applyAllChunk is how many transactions share one group commit.
const applyAllChunk = 256

// ApplyAll appends and applies txns in chunks of applyAllChunk, one
// fsync per chunk under SyncAlways (group commit). ctx is checked at
// chunk boundaries only, so every logged record is fully applied — a
// cancelled batch never leaves the log ahead of the engine by a
// half-applied chunk. See ApplyBatch to learn how many transactions a
// cancelled or failed batch durably applied.
func (s *Store) ApplyAll(ctx context.Context, txns []db.Transaction) error {
	_, err := s.ApplyBatch(ctx, txns)
	return err
}

// ApplyBatch is ApplyAll reporting the durably applied (logged and
// applied) prefix: after a cancellation or failure, recovery and
// replication resume from txns[applied:] without double-applying.
func (s *Store) ApplyBatch(ctx context.Context, txns []db.Transaction) (applied int, err error) {
	for len(txns) > 0 {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return applied, err
			}
		}
		n := len(txns)
		if n > applyAllChunk {
			n = applyAllChunk
		}
		k, err := s.applyChunk(txns[:n])
		applied += k
		if err != nil {
			return applied, err
		}
		txns = txns[n:]
	}
	return applied, nil
}

func (s *Store) applyChunk(chunk []db.Transaction) (applied int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	firstBad := len(chunk)
	for i := range chunk {
		if !s.checkTxn(&chunk[i]) {
			firstBad = i
			break
		}
	}
	if firstBad == len(chunk) {
		payloads := make([][]byte, len(chunk))
		for i := range chunk {
			payloads[i] = encodeTxn(&chunk[i])
		}
		if err := s.appendLocked(payloads...); err != nil {
			return 0, err
		}
		// Validated above: cannot fail, so the sharded engine's
		// stop-on-error nondeterminism is unreachable here.
		applied, err = s.engine().ApplyBatch(context.Background(), chunk)
		s.maybeCheckpointLocked()
		return applied, err
	}
	// A transaction in this chunk will fail its static checks: fall
	// back to the sequential path, stopping at the first error exactly
	// like engine.ApplyAll does.
	for i := 0; i <= firstBad && i < len(chunk); i++ {
		if err := s.applyTxnLocked(&chunk[i]); err != nil {
			return i, err
		}
	}
	return firstBad + 1, nil
}

// RestoreRow validates statically, logs, then applies. Invalid calls
// are delegated unlogged so the engine's error text is canonical.
func (s *Store) RestoreRow(rel string, t db.Tuple, ann *core.Expr) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.engine().Schema().Relation(rel)
	if r == nil || t.Conforms(r) != nil {
		return s.engine().RestoreRow(rel, t, ann)
	}
	payload, err := encodeRestore(rel, t, ann)
	if err != nil {
		return err
	}
	if err := s.appendLocked(payload); err != nil {
		return err
	}
	if err := s.engine().RestoreRow(rel, t, ann); err != nil {
		return err
	}
	s.maybeCheckpointLocked()
	return nil
}

// MinimizeAll minimizes every annotation and logs a minimize record on
// success (log-after-success: replaying the record re-runs the full
// pass). A cancelled pass is not logged; the annotations it already
// rewrote stay equivalent, so only byte-level identity with a recovery
// is deferred until the next completed pass or checkpoint.
func (s *Store) MinimizeAll(ctx context.Context) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	if s.readOnly.Load() {
		return 0, s.roError()
	}
	n, err := s.engine().MinimizeAll(ctx)
	if err != nil {
		return n, err
	}
	if err := s.appendLocked(encodeMinimize()); err != nil {
		return n, err
	}
	s.maybeCheckpointLocked()
	return n, nil
}

// BuildIndex builds the index, then logs it (log-after-success) so
// recovery rebuilds it. Indexes are pure access paths: a lost index
// record changes no answer, so replay errors are ignored.
func (s *Store) BuildIndex(rel, attr string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.readOnly.Load() {
		return s.roError()
	}
	if err := s.engine().BuildIndex(rel, attr); err != nil {
		return err
	}
	return s.appendLocked(encodeIndexOp(recBuildIndex, rel, attr))
}

// DropIndex drops the index, then logs it.
func (s *Store) DropIndex(rel, attr string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.readOnly.Load() {
		return s.roError()
	}
	if err := s.engine().DropIndex(rel, attr); err != nil {
		return err
	}
	return s.appendLocked(encodeIndexOp(recDropIndex, rel, attr))
}

// --- checkpointing ------------------------------------------------------

// writeCheckpoint snapshots the engine to checkpoint-<lsn> via a temp
// file, fsync and atomic rename.
func (s *Store) writeCheckpoint(lsn uint64) error {
	tmp := filepath.Join(s.dir, "checkpoint.tmp")
	f, err := s.fs.Create(tmp)
	if err != nil {
		return err
	}
	if err := provstore.SaveSnapshot(f, s.engine()); err != nil {
		f.Close()
		_ = s.fs.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		_ = s.fs.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		_ = s.fs.Remove(tmp)
		return err
	}
	if err := s.fs.Rename(tmp, filepath.Join(s.dir, ckptName(lsn))); err != nil {
		_ = s.fs.Remove(tmp)
		return err
	}
	return s.fs.SyncDir(s.dir)
}

// Checkpoint snapshots the current state, rotates the log, and prunes
// segments and checkpoints the new checkpoint supersedes. On failure
// the store keeps running on the log alone — a failed checkpoint loses
// nothing.
func (s *Store) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.checkpointLocked()
}

func (s *Store) checkpointLocked() error {
	if s.closed {
		return ErrClosed
	}
	if s.readOnly.Load() {
		return s.roError()
	}
	lsn := s.lsn
	if err := s.writeCheckpoint(lsn); err != nil {
		return err
	}
	s.ckptLSN = lsn
	s.sinceCkpt = 0
	s.ckpts.Add(1)
	// Rotate so the live segment starts at the checkpoint LSN, then
	// prune everything the checkpoint supersedes. Failures here leave
	// stale files recovery knows to skip, so they are best-effort.
	if s.lw.count > 0 {
		if err := s.lw.rotate(); err != nil {
			return s.degradeLocked(err)
		}
	}
	// Active replication streams fence pruning: a segment is deleted
	// only if every record it can hold precedes the slowest stream's
	// position, so a follower catching up from disk never has its
	// segment removed mid-read.
	fence := s.minStreamPosLocked()
	if names, err := s.fs.ReadDir(s.dir); err == nil {
		var starts []uint64
		for _, name := range names {
			if v, ok := parseSeqName(name, segPrefix, segSuffix); ok {
				starts = append(starts, v)
			}
		}
		sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
		segEnd := func(v uint64) uint64 {
			// A segment's records end where the next one starts; the
			// live segment (start == lsn after the rotate above) always
			// bounds the last old one.
			i := sort.Search(len(starts), func(i int) bool { return starts[i] > v })
			if i < len(starts) {
				return starts[i]
			}
			return lsn
		}
		for _, name := range names {
			if v, ok := parseSeqName(name, segPrefix, segSuffix); ok && v < lsn && v != s.lw.start {
				if segEnd(v) <= fence {
					_ = s.fs.Remove(filepath.Join(s.dir, name))
				}
			}
			if v, ok := parseSeqName(name, ckptPrefix, ckptSuffix); ok && v < lsn {
				_ = s.fs.Remove(filepath.Join(s.dir, name))
			}
		}
		_ = s.fs.SyncDir(s.dir)
	}
	return nil
}

// maybeCheckpointLocked runs the automatic checkpoint cadence. An
// automatic checkpoint failure must not fail the apply that triggered
// it (the log holds the data); it is counted and retried at the next
// threshold crossing.
func (s *Store) maybeCheckpointLocked() {
	if s.opts.ckptEach == 0 || s.sinceCkpt < s.opts.ckptEach {
		return
	}
	if err := s.checkpointLocked(); err != nil {
		s.ckptFails.Add(1)
		s.sinceCkpt = 0 // back off until the next full interval
	}
}

// --- lifecycle ----------------------------------------------------------

// syncLoop is the SyncInterval timer: on every tick it fsyncs what was
// appended since the last sync, so appended data is durable within one
// interval. A tick with nothing appended does nothing.
func (s *Store) syncLoop() {
	defer s.syncWG.Done()
	t := time.NewTicker(s.opts.interval)
	defer t.Stop()
	for {
		select {
		case <-s.stopSync:
			return
		case <-t.C:
			s.mu.Lock()
			if !s.closed && !s.readOnly.Load() && s.lw.unsynced {
				if err := s.lw.sync(); err != nil {
					_ = s.degradeLocked(err)
				} else {
					s.syncs.Add(1)
				}
			}
			s.mu.Unlock()
		}
	}
}

// Close syncs and closes the log and releases the directory lock.
func (s *Store) Close() error {
	if s.stopSync != nil {
		select {
		case <-s.stopSync:
		default:
			close(s.stopSync)
		}
		s.syncWG.Wait()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	s.closeStreamsLocked()
	var err error
	if !s.readOnly.Load() {
		err = s.lw.close()
	} else {
		_ = s.lw.f.Close()
	}
	s.release()
	return err
}

// Crash abandons buffered log bytes and drops the store without
// flushing or syncing, simulating process death mid-write. Test hook.
func (s *Store) Crash() {
	if s.stopSync != nil {
		select {
		case <-s.stopSync:
		default:
			close(s.stopSync)
		}
		s.syncWG.Wait()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	s.closeStreamsLocked()
	s.lw.crash()
	s.release()
}

// Underlying exposes the wrapped engine for diagnostics (the server's
// sharded-stats endpoint type-asserts on the concrete engine).
func (s *Store) Underlying() engine.DB { return s.engine() }

// Dir returns the data directory.
func (s *Store) Dir() string { return s.dir }

// ReadOnly reports whether the store has degraded to read-only.
func (s *Store) ReadOnly() bool { return s.readOnly.Load() }

// Stats summarizes the durability subsystem.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	lsn, ckptLSN := s.lsn, s.ckptLSN
	active := len(s.streams)
	s.mu.Unlock()
	st := StoreStats{
		Dir:            s.dir,
		Sync:           s.opts.sync.String(),
		LSN:            lsn,
		CheckpointLSN:  ckptLSN,
		Appended:       s.appended.Load(),
		Syncs:          s.syncs.Load(),
		Checkpoints:    s.ckpts.Load(),
		CheckpointErrs: s.ckptFails.Load(),
		Recovered:      s.recovered,
		Replayed:       s.replayed,
		TruncatedTail:  s.truncated,
		ReadOnly:       s.readOnly.Load(),
		ActiveStreams:  active,
		StreamsServed:  s.streamsServed.Load(),
		ResyncsServed:  s.resyncsServed.Load(),
		StreamLagDrops: s.streamLagDrops.Load(),
	}
	if cause, ok := s.roCause.Load().(error); ok {
		st.ReadOnlyCause = cause.Error()
	}
	return st
}

// --- read side: pure delegation (the engine has its own locks) ----------

// Mode implements engine.DB.
func (s *Store) Mode() engine.Mode { return s.engine().Mode() }

// Schema implements engine.DB.
func (s *Store) Schema() *db.Schema { return s.engine().Schema() }

// Relations implements engine.DB.
func (s *Store) Relations() []string { return s.engine().Relations() }

// IndexStats implements engine.DB.
func (s *Store) IndexStats() []engine.IndexInfo { return s.engine().IndexStats() }

// PlannerStats implements engine.DB.
func (s *Store) PlannerStats() engine.PlannerStats { return s.engine().PlannerStats() }

// Annotation implements engine.DB.
func (s *Store) Annotation(rel string, t db.Tuple) *core.Expr { return s.engine().Annotation(rel, t) }

// NF implements engine.DB.
func (s *Store) NF(rel string, t db.Tuple) *core.NF { return s.engine().NF(rel, t) }

// EachRow implements engine.DB.
func (s *Store) EachRow(rel string, f func(t db.Tuple, ann *core.Expr)) { s.engine().EachRow(rel, f) }

// Rows implements engine.DB.
func (s *Store) Rows(f func(rel string, t db.Tuple, ann *core.Expr)) { s.engine().Rows(f) }

// Select implements engine.DB.
func (s *Store) Select(rel string, sel db.Pattern) ([]db.Tuple, error) {
	return s.engine().Select(rel, sel)
}

// NumRows implements engine.DB.
func (s *Store) NumRows() int { return s.engine().NumRows() }

// SupportSize implements engine.DB.
func (s *Store) SupportSize() int { return s.engine().SupportSize() }

// ProvSize implements engine.DB.
func (s *Store) ProvSize() int64 { return s.engine().ProvSize() }

// ProvDAGSize implements engine.DB.
func (s *Store) ProvDAGSize() int64 { return s.engine().ProvDAGSize() }

// At implements engine.DB: a pinned read-only view of the underlying
// engine. Views do not read the log, so the history they can pin starts
// at the state the engine was recovered (or opened) with — epochs from
// a previous process life are replayed into the recovery horizon, not
// preserved individually.
func (s *Store) At(seq uint64) engine.View { return s.engine().At(seq) }

// Horizon implements engine.DB.
func (s *Store) Horizon() uint64 { return s.engine().Horizon() }

// WaitHorizon implements engine.DB.
func (s *Store) WaitHorizon(ctx context.Context, seq uint64) error {
	return s.engine().WaitHorizon(ctx, seq)
}

// MVCCStats implements engine.DB.
func (s *Store) MVCCStats() engine.MVCCStats { return s.engine().MVCCStats() }
