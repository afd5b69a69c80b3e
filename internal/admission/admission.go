package admission

import (
	"container/list"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Class partitions requests by the resources they hold while in
// flight. Each class has its own concurrency limit and wait queue, so
// saturation in one cannot starve another.
type Class int

const (
	// ClassRead is cheap point work: annotation lookups, schema and
	// index listings. Never shed proactively — under overload these are
	// the requests that must keep answering.
	ClassRead Class = iota
	// ClassExpensive is materializing read work: full-database
	// valuations, what-if restrictions, snapshot encodes. Shed first
	// under overload (recomputable by the client, and each one holds a
	// worker pool while it runs).
	ClassExpensive
	// ClassWrite is state-changing work: ingestion, index DDL,
	// checkpoints, snapshot loads. Shed only by its own queue limits,
	// after expensive reads.
	ClassWrite
	// ClassStream is a long-lived streaming connection (replication or
	// subscription). Streams hold their slot for the connection's
	// lifetime and never queue: past the cap they shed immediately, so
	// a replica reconnect storm cannot pile up handshakes.
	ClassStream
	// NumClasses sizes per-class tables.
	NumClasses
)

func (c Class) String() string {
	switch c {
	case ClassRead:
		return "read"
	case ClassExpensive:
		return "expensive"
	case ClassWrite:
		return "write"
	case ClassStream:
		return "stream"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Reason says why a request was shed.
type Reason string

const (
	// ReasonQueueFull: the class was at its concurrency limit and its
	// wait queue was full. The canonical 429.
	ReasonQueueFull Reason = "queue_full"
	// ReasonDeadline: the request could not be admitted within its
	// remaining deadline (or the class's queue wait) — shed immediately
	// or when the wait expired. 503.
	ReasonDeadline Reason = "deadline"
	// ReasonOverload: the controller is in the overloaded state and
	// sheds expensive work outright to protect the rest. 503.
	ReasonOverload Reason = "overloaded"
)

// ShedError is the typed load-shed result. RetryAfter is the hint the
// HTTP layer renders as a Retry-After header.
type ShedError struct {
	Class      Class
	Reason     Reason
	RetryAfter time.Duration
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("admission: %s request shed (%s; retry after %v)", e.Class, e.Reason, e.RetryAfter)
}

// ClassConfig bounds one class. A zero MaxInFlight means unlimited
// (admission becomes pure accounting); a zero QueueDepth means no
// queue (at the limit, shed immediately).
type ClassConfig struct {
	MaxInFlight int
	QueueDepth  int
	QueueWait   time.Duration
}

// Config configures a Controller.
type Config struct {
	Classes [NumClasses]ClassConfig
	// MinService is the service time a queued request must still be
	// able to afford: a request whose context deadline leaves less than
	// MinService after any queue wait is shed immediately (it would
	// only occupy a queue slot to time out).
	MinService time.Duration
	// Window is how long a capacity shed keeps the controller in the
	// overloaded state, and queue pressure keeps it degraded.
	Window time.Duration
	// now is injectable for tests.
	now func() time.Time
}

// Unlimited is the pass-through configuration: every class unbounded.
// The server defaults to it so admission is strictly opt-in; the serve
// command opts in with real limits.
func Unlimited() Config { return Config{} }

const (
	defaultQueueWait = time.Second
	defaultWindow    = time.Second
)

// State is the coarse health summary.
type State int

const (
	// StateOK: admitting everything promptly.
	StateOK State = iota
	// StateDegraded: requests are queueing (or an external signal like
	// a read-only WAL or replication lag says so) but nothing is shed.
	StateDegraded
	// StateOverloaded: the controller shed for capacity within the
	// window — drain this node.
	StateOverloaded
)

func (s State) String() string {
	switch s {
	case StateOK:
		return "ok"
	case StateDegraded:
		return "degraded"
	default:
		return "overloaded"
	}
}

// Controller admits requests class by class.
type Controller struct {
	classes    [NumClasses]*limiter
	minService time.Duration
	window     time.Duration
	now        func() time.Time

	lastShed   atomic.Int64 // unix nanos of the last capacity shed
	lastQueued atomic.Int64 // unix nanos of the last forced queue entry
}

// NewController builds a controller from cfg, filling zero QueueWait /
// Window with defaults.
func NewController(cfg Config) *Controller {
	c := &Controller{minService: cfg.MinService, window: cfg.Window, now: cfg.now}
	if c.window <= 0 {
		c.window = defaultWindow
	}
	if c.now == nil {
		c.now = time.Now
	}
	for i := range c.classes {
		cc := cfg.Classes[i]
		if cc.QueueWait <= 0 {
			cc.QueueWait = defaultQueueWait
		}
		c.classes[i] = &limiter{cfg: cc}
	}
	return c
}

// Admit reserves an in-flight slot in class. It returns a release
// function on success; the caller must invoke it exactly once when the
// request finishes. On shed it returns a *ShedError.
//
// Fast path: below the class limit, admit immediately. At the limit,
// the request queues (FIFO) up to the class queue depth, bounded by
// the class queue wait and the request's own deadline. Expensive-class
// requests are shed outright while the controller is overloaded —
// reads shed before writes.
func (c *Controller) Admit(ctx context.Context, class Class) (func(), error) {
	l := c.classes[class]
	if class == ClassExpensive && c.State() == StateOverloaded {
		l.shedOverload.Add(1)
		return nil, &ShedError{Class: class, Reason: ReasonOverload, RetryAfter: c.window}
	}
	if ok := l.tryAcquire(); ok {
		return l.releaseFunc(), nil
	}
	// Queue entry. Compute the wait budget first: the class bound,
	// shrunk by the request's remaining deadline less MinService.
	wait := l.cfg.QueueWait
	if dl, ok := ctx.Deadline(); ok {
		rem := time.Until(dl) - c.minService
		if rem <= 0 {
			l.shedDeadline.Add(1)
			c.noteShed()
			return nil, &ShedError{Class: class, Reason: ReasonDeadline, RetryAfter: l.cfg.QueueWait}
		}
		if rem < wait {
			wait = rem
		}
	}
	w, queued, err := l.enqueue()
	if err != nil {
		c.noteShed()
		return nil, &ShedError{Class: class, Reason: ReasonQueueFull, RetryAfter: l.cfg.QueueWait}
	}
	if queued {
		c.noteQueued()
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case <-w.granted:
		return l.releaseFunc(), nil
	case <-ctx.Done():
	case <-timer.C:
	}
	if l.abandon(w) {
		// The grant raced our timeout: the slot is ours, give it back.
		l.release()
	}
	l.shedDeadline.Add(1)
	c.noteShed()
	return nil, &ShedError{Class: class, Reason: ReasonDeadline, RetryAfter: l.cfg.QueueWait}
}

func (c *Controller) noteShed() { c.lastShed.Store(c.now().UnixNano()) }

// Window reports the overload stickiness window — the Retry-After hint
// for state-based refusals rendered outside Admit (e.g. readyz).
func (c *Controller) Window() time.Duration { return c.window }
func (c *Controller) noteQueued()           { c.lastQueued.Store(c.now().UnixNano()) }

// State reports the controller's own view: overloaded while a capacity
// shed is within the window, degraded while queue pressure is, ok
// otherwise. External signals (WAL degradation, replication lag) are
// folded in by the server, not here.
func (c *Controller) State() State {
	now := c.now().UnixNano()
	win := c.window.Nanoseconds()
	if ls := c.lastShed.Load(); ls != 0 && now-ls < win {
		return StateOverloaded
	}
	if lq := c.lastQueued.Load(); lq != 0 && now-lq < win {
		return StateDegraded
	}
	for _, l := range c.classes {
		if l.queuedNow() > 0 {
			return StateDegraded
		}
	}
	return StateOK
}

// ClassStats is one class's counter snapshot.
type ClassStats struct {
	InFlight      int    `json:"in_flight"`
	Queued        int    `json:"queued"`
	MaxInFlight   int    `json:"max_in_flight"`
	QueueDepth    int    `json:"queue_depth"`
	Admitted      uint64 `json:"admitted"`
	QueuedTotal   uint64 `json:"queued_total"`
	ShedQueueFull uint64 `json:"shed_queue_full"`
	ShedDeadline  uint64 `json:"shed_deadline"`
	ShedOverload  uint64 `json:"shed_overload"`
}

// Shed is the class's total shed count.
func (cs ClassStats) Shed() uint64 { return cs.ShedQueueFull + cs.ShedDeadline + cs.ShedOverload }

// Stats is the controller snapshot served under /v1/stats and expvar.
type Stats struct {
	State   string                `json:"state"`
	Classes map[string]ClassStats `json:"classes"`
}

// StatsSnapshot collects the per-class counters.
func (c *Controller) StatsSnapshot() Stats {
	st := Stats{State: c.State().String(), Classes: make(map[string]ClassStats, NumClasses)}
	for i, l := range c.classes {
		st.Classes[Class(i).String()] = l.snapshot()
	}
	return st
}

// TotalShed sums sheds across classes (the chaos CI job asserts it
// moved).
func (c *Controller) TotalShed() uint64 {
	var n uint64
	for _, l := range c.classes {
		n += l.snapshot().Shed()
	}
	return n
}

// limiter is one class's semaphore plus FIFO wait queue.
type limiter struct {
	cfg ClassConfig

	mu       sync.Mutex
	inflight int
	waiters  list.List // of *waiter, FIFO

	admitted     atomic.Uint64
	queuedTotal  atomic.Uint64
	shedFull     atomic.Uint64
	shedDeadline atomic.Uint64
	shedOverload atomic.Uint64
}

type waiter struct {
	granted chan struct{}
	elem    *list.Element
	done    bool // granted or abandoned, settled under limiter.mu
}

func (l *limiter) tryAcquire() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.cfg.MaxInFlight > 0 && l.inflight >= l.cfg.MaxInFlight {
		return false
	}
	l.inflight++
	l.admitted.Add(1)
	return true
}

func (l *limiter) enqueue() (w *waiter, queued bool, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	// Re-check under the lock: a release may have freed a slot between
	// tryAcquire and here.
	if l.cfg.MaxInFlight <= 0 || l.inflight < l.cfg.MaxInFlight {
		l.inflight++
		l.admitted.Add(1)
		w := &waiter{granted: make(chan struct{})}
		close(w.granted)
		w.done = true
		return w, false, nil
	}
	if l.waiters.Len() >= l.cfg.QueueDepth {
		l.shedFull.Add(1)
		return nil, false, &ShedError{Reason: ReasonQueueFull}
	}
	w = &waiter{granted: make(chan struct{})}
	w.elem = l.waiters.PushBack(w)
	l.queuedTotal.Add(1)
	return w, true, nil
}

// abandon removes w from the queue after a timeout or cancellation. It
// reports whether the grant won the race (the slot is held and must be
// released by the caller).
func (l *limiter) abandon(w *waiter) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if w.done {
		return true
	}
	l.waiters.Remove(w.elem)
	w.done = true
	return false
}

// release frees one in-flight slot, handing it to the oldest waiter if
// any (the slot transfers — inflight stays constant).
func (l *limiter) release() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for e := l.waiters.Front(); e != nil; e = l.waiters.Front() {
		w := e.Value.(*waiter)
		l.waiters.Remove(e)
		if w.done {
			continue
		}
		w.done = true
		l.admitted.Add(1)
		close(w.granted)
		return
	}
	l.inflight--
}

func (l *limiter) releaseFunc() func() {
	var once sync.Once
	return func() { once.Do(l.release) }
}

func (l *limiter) queuedNow() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.waiters.Len()
}

func (l *limiter) snapshot() ClassStats {
	l.mu.Lock()
	inflight, queued := l.inflight, l.waiters.Len()
	l.mu.Unlock()
	return ClassStats{
		InFlight:      inflight,
		Queued:        queued,
		MaxInFlight:   l.cfg.MaxInFlight,
		QueueDepth:    l.cfg.QueueDepth,
		Admitted:      l.admitted.Load(),
		QueuedTotal:   l.queuedTotal.Load(),
		ShedQueueFull: l.shedFull.Load(),
		ShedDeadline:  l.shedDeadline.Load(),
		ShedOverload:  l.shedOverload.Load(),
	}
}
