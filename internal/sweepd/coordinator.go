package sweepd

import (
	"context"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"tlbprefetch/internal/sweep"
)

// Config parameterizes a Coordinator.
type Config struct {
	// Jobs are the grid's cells (typically Grid.Jobs output). Cells whose
	// key hash is already in Store are settled immediately; the rest form
	// the job feed.
	Jobs []sweep.Job
	// Store is the authoritative result store the feed drains into. Nil
	// uses a fresh in-memory store.
	Store *sweep.Store
	// LeaseTTL is how long a worker may hold cells without heartbeating
	// before they return to the feed (default 30s).
	LeaseTTL time.Duration
	// MaxBatch caps cells per lease (default 8).
	MaxBatch int
	// MaxAttempts is the per-cell budget of lease expiries, rejections and
	// reported failures before the cell is marked permanently failed
	// (default 5).
	MaxAttempts int
	// Now is the clock (default time.Now); tests inject a fake one to
	// drive lease expiry deterministically.
	Now func() time.Time
	// Logf, when non-nil, receives progress lines as cells settle.
	Logf func(format string, args ...any)
	// Token, when non-empty, gates every endpoint behind bearer-token
	// auth: requests must carry `Authorization: Bearer <token>` or they
	// are answered 401 before touching any coordinator state. The compare
	// is constant-time.
	Token string
	// Blobs maps trace digests (hex SHA-256) to local file paths served at
	// PathBlob, so workers can fetch recordings from the coordinator
	// instead of carrying their own -trace files.
	Blobs map[string]string
	// Checkpoint, when positive and Store is file-bound, makes Wait save
	// the store at roughly this interval while the grid is in flight, so a
	// coordinator crash loses at most one interval of settled cells — a
	// restart re-feeds only the still-dirty remainder.
	Checkpoint time.Duration
}

type cellState int

const (
	cellPending cellState = iota
	cellLeased
	cellDone
	cellFailed
)

type cell struct {
	job      sweep.Job
	hash     string
	state    cellState
	attempts int
	lastErr  string
}

type lease struct {
	id      string
	worker  string
	expires time.Time
	// outstanding lists the lease's not-yet-settled cell hashes in issue
	// order, so expiry re-queues deterministically.
	outstanding []string
}

// Coordinator owns a grid's dirty cells and feeds them to workers over the
// lease protocol, merging verified results into the store.
type Coordinator struct {
	cfg Config

	mu       sync.Mutex
	cells    map[string]*cell
	order    []string // dirty-cell hashes in grid enumeration order
	queue    []string // pending feed, FIFO
	leases   map[string]*lease
	leaseSeq int
	cached   int
	doneN    int
	failedN  int
	pendingN int
	leasedN  int
	// conflicts records store-merge divergences: two fingerprint-valid
	// uploads disagreeing on one content-addressed cell, possible only
	// when a worker runs simulator code that changed without a schema
	// bump. It must fail the run — byte-identity with the single-process
	// sweep is the backend's whole contract.
	conflicts []string
	complete  chan struct{}
	closed    bool
}

// New validates the grid's cells, settles the ones the store already
// holds, and queues the rest as the job feed.
func New(cfg Config) (*Coordinator, error) {
	if cfg.Store == nil {
		cfg.Store = sweep.NewStore()
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 30 * time.Second
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 8
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 5
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	c := &Coordinator{
		cfg:      cfg,
		cells:    make(map[string]*cell),
		leases:   make(map[string]*lease),
		complete: make(chan struct{}),
	}
	for i, j := range cfg.Jobs {
		if err := j.Validate(); err != nil {
			return nil, fmt.Errorf("sweepd: job %d (%s/%s): %w", i, j.SourceLabel(), j.Mech.Label(), err)
		}
		h := j.Key().Hash()
		if _, dup := c.cells[h]; dup {
			continue // grids dedupe already; tolerate hand-built slices
		}
		// Membership alone settles a cached cell — the index answers it
		// without reading any segment, so resuming a huge sharded store
		// costs O(index), not O(store).
		if cfg.Store.Has(h) {
			c.cached++
			continue
		}
		c.cells[h] = &cell{job: j, hash: h}
		c.order = append(c.order, h)
		c.queue = append(c.queue, h)
		c.pendingN++
	}
	if len(c.cells) == 0 {
		c.closeCompleteLocked()
	}
	return c, nil
}

// Store returns the authoritative store the feed merges into.
func (c *Coordinator) Store() *sweep.Store { return c.cfg.Store }

// Status returns the current progress snapshot.
func (c *Coordinator) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(c.cfg.Now())
	return c.statusLocked()
}

// statusLocked snapshots progress from counters maintained on every state
// transition (not from the queue, which may hold stale entries for cells a
// late upload settled while they waited) — O(1), since it runs under the
// lock on every protocol request.
func (c *Coordinator) statusLocked() Status {
	return Status{
		Total:    c.cached + len(c.cells),
		Cached:   c.cached,
		Done:     c.doneN,
		Pending:  c.pendingN,
		Leased:   c.leasedN,
		Failed:   c.failedN,
		Complete: c.doneN+c.failedN == len(c.cells),
	}
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// closeCompleteLocked marks the grid settled exactly once.
func (c *Coordinator) closeCompleteLocked() {
	if !c.closed {
		c.closed = true
		close(c.complete)
	}
}

// checkCompleteLocked closes the completion channel once every dirty cell
// is done or permanently failed.
func (c *Coordinator) checkCompleteLocked() {
	if c.doneN+c.failedN == len(c.cells) {
		c.closeCompleteLocked()
	}
}

// expireLocked returns expired leases' outstanding cells to the feed,
// spending one attempt each (a worker that keeps dying on a cell must not
// recycle it forever).
func (c *Coordinator) expireLocked(now time.Time) {
	for id, le := range c.leases {
		if now.Before(le.expires) {
			continue
		}
		delete(c.leases, id)
		for _, h := range le.outstanding {
			c.requeueLocked(h, fmt.Sprintf("lease %s (worker %s) expired", id, le.worker))
		}
		c.logf("sweepd: lease %s (worker %s) expired, %d cells re-queued", id, le.worker, len(le.outstanding))
	}
	c.checkCompleteLocked()
}

// requeueLocked returns a leased cell to the feed, failing it permanently
// once its attempt budget is spent. Cells in any other state are left
// alone: settled ones stay settled, and a pending cell is already queued.
func (c *Coordinator) requeueLocked(h, why string) {
	cl, ok := c.cells[h]
	if !ok || cl.state != cellLeased {
		return
	}
	cl.attempts++
	cl.lastErr = why
	c.leasedN--
	if cl.attempts >= c.cfg.MaxAttempts {
		cl.state = cellFailed
		c.failedN++
		c.logf("sweepd: cell %.12s… (%s %s) failed permanently after %d attempts: %s",
			h, cl.job.SourceLabel(), cl.job.Mech.Label(), cl.attempts, why)
		return
	}
	cl.state = cellPending
	c.pendingN++
	c.queue = append(c.queue, h)
}

// Done returns a channel closed once every dirty cell has settled.
func (c *Coordinator) Done() <-chan struct{} { return c.complete }

// Wait blocks until the grid settles or the context ends, then reports
// permanently failed cells (if any) as an error. It also ticks lease
// expiry, so a feed whose workers all vanished still fails cells instead
// of hanging on their leases. When Config.Checkpoint is set, each tick
// also checkpoints the store once the interval has elapsed; a checkpoint
// that fails is logged and retried next interval rather than killing a
// run whose workers are still making progress.
func (c *Coordinator) Wait(ctx context.Context) error {
	tick := c.cfg.LeaseTTL / 2
	if tick > time.Second {
		tick = time.Second
	}
	if c.cfg.Checkpoint > 0 && c.cfg.Checkpoint < tick {
		tick = c.cfg.Checkpoint
	}
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	lastCkpt := time.Now()
	for {
		select {
		case <-c.complete:
			// One final checkpoint, so a checkpointing coordinator always
			// leaves the completed store on disk even if the caller's own
			// save never runs.
			if c.cfg.Checkpoint > 0 {
				if err := c.Checkpoint(); err != nil {
					c.logf("sweepd: final checkpoint failed: %v", err)
				}
			}
			return c.Err()
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
			c.mu.Lock()
			c.expireLocked(c.cfg.Now())
			c.mu.Unlock()
			if c.cfg.Checkpoint > 0 && time.Since(lastCkpt) >= c.cfg.Checkpoint {
				lastCkpt = time.Now()
				if err := c.Checkpoint(); err != nil {
					c.logf("sweepd: checkpoint failed (retrying next interval): %v", err)
				}
			}
		}
	}
}

// Checkpoint saves the store now (atomic temp+rename+fsync via
// sweep.Store.Save, serialized against Merge and other Saves). It is safe
// to call while workers are uploading; an in-memory store is a no-op.
func (c *Coordinator) Checkpoint() error { return c.cfg.Store.Save() }

// Err summarizes permanently failed cells and store-merge conflicts (nil
// when every cell is done and every upload agreed). The report is
// deterministic: failed cells are named in grid enumeration order.
func (c *Coordinator) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.conflicts) > 0 {
		return fmt.Errorf("sweepd: %d merge conflicts — workers disagreed on a content-addressed cell (simulator behaviour changed without a schema bump?); first: %s",
			len(c.conflicts), c.conflicts[0])
	}
	if c.failedN == 0 {
		return nil
	}
	for _, h := range c.order {
		if cl := c.cells[h]; cl.state == cellFailed {
			return fmt.Errorf("sweepd: %d of %d cells failed permanently; first: %s %s (%s)",
				c.failedN, len(c.cells), cl.job.SourceLabel(), cl.job.Mech.Label(), cl.lastErr)
		}
	}
	return fmt.Errorf("sweepd: %d cells failed permanently", c.failedN)
}

// Handler returns the coordinator's HTTP surface.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(PathLease, func(w http.ResponseWriter, r *http.Request) {
		var req LeaseRequest
		if !decodePost(w, r, &req) {
			return
		}
		reply(w, c.lease(req))
	})
	mux.HandleFunc(PathComplete, func(w http.ResponseWriter, r *http.Request) {
		var req CompleteRequest
		if !decodePost(w, r, &req) {
			return
		}
		reply(w, c.completeLease(req))
	})
	mux.HandleFunc(PathHeartbeat, func(w http.ResponseWriter, r *http.Request) {
		var req HeartbeatRequest
		if !decodePost(w, r, &req) {
			return
		}
		if !c.heartbeat(req.LeaseID) {
			http.Error(w, "lease unknown or expired", http.StatusGone)
			return
		}
		reply(w, struct{}{})
	})
	mux.HandleFunc(PathStatus, func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		reply(w, c.Status())
	})
	mux.HandleFunc(PathBlob, c.serveBlob)
	if c.cfg.Token != "" {
		return requireBearer(c.cfg.Token, mux)
	}
	return mux
}

// requireBearer wraps a handler behind bearer-token auth. Both sides of the
// comparison are hashed first, so the compare is constant-time regardless
// of credential length and leaks nothing about the configured token.
func requireBearer(token string, next http.Handler) http.Handler {
	want := sha256.Sum256([]byte(token))
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var supplied string
		if auth := r.Header.Get("Authorization"); strings.HasPrefix(auth, "Bearer ") {
			supplied = strings.TrimPrefix(auth, "Bearer ")
		}
		got := sha256.Sum256([]byte(supplied))
		if subtle.ConstantTimeCompare(want[:], got[:]) != 1 {
			w.Header().Set("WWW-Authenticate", `Bearer realm="sweepd"`)
			http.Error(w, "unauthorized: missing or wrong bearer token", http.StatusUnauthorized)
			return
		}
		next.ServeHTTP(w, r)
	})
}

// serveBlob streams a content-addressed trace blob: GET /v1/blob/<sha256>.
// The digest names the bytes, so the reply is immutable and the worker can
// (and does) verify it end-to-end; the coordinator only guarantees it
// streams the file its configuration maps the digest to.
func (c *Coordinator) serveBlob(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	digest := strings.TrimPrefix(r.URL.Path, PathBlob)
	if !ValidDigest(digest) {
		http.Error(w, "blob names are 64 hex characters (a SHA-256 digest)", http.StatusBadRequest)
		return
	}
	path, ok := c.cfg.Blobs[digest]
	if !ok {
		http.Error(w, "no such blob: the coordinator was not given a file with this digest", http.StatusNotFound)
		return
	}
	f, err := os.Open(path)
	if err != nil {
		c.logf("sweepd: blob %.12s…: %v", digest, err)
		http.Error(w, "blob file unreadable on the coordinator", http.StatusInternalServerError)
		return
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		http.Error(w, "blob file unreadable on the coordinator", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(fi.Size(), 10))
	io.Copy(w, f)
}

// ValidDigest reports whether s is a plausible blob name: exactly 64
// lowercase hex characters. Gating on it keeps attacker-shaped digests
// ("../../etc/passwd") out of both the blob endpoint and the on-disk cache.
func ValidDigest(s string) bool {
	if len(s) != 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// maxBodyBytes bounds request bodies: far above any honest lease's upload,
// far below what could stall the coordinator.
const maxBodyBytes = 64 << 20

func decodePost(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return false
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

func reply(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// lease pops up to Max pending cells into a fresh lease.
func (c *Coordinator) lease(req LeaseRequest) LeaseReply {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.Now()
	c.expireLocked(now)

	if c.doneN+c.failedN == len(c.cells) {
		return LeaseReply{Done: true, Status: c.statusLocked()}
	}
	max := req.Max
	if max <= 0 || max > c.cfg.MaxBatch {
		max = c.cfg.MaxBatch
	}
	// Pop up to max pending cells, dropping stale queue entries for cells
	// that settled while they waited (late uploads from expired leases).
	var (
		jobs   []sweep.Job
		hashes []string
	)
	for len(c.queue) > 0 && len(jobs) < max {
		h := c.queue[0]
		c.queue = c.queue[1:]
		cl := c.cells[h]
		if cl.state != cellPending {
			continue
		}
		cl.state = cellLeased
		c.pendingN--
		c.leasedN++
		hashes = append(hashes, h)
		jobs = append(jobs, cl.job)
	}
	if len(jobs) == 0 {
		retry := c.cfg.LeaseTTL / 4
		if retry < 50*time.Millisecond {
			retry = 50 * time.Millisecond
		}
		if retry > 2*time.Second {
			retry = 2 * time.Second
		}
		return LeaseReply{RetryMs: retry.Milliseconds(), Status: c.statusLocked()}
	}
	c.leaseSeq++
	le := &lease{
		id:          fmt.Sprintf("L%d", c.leaseSeq),
		worker:      req.Worker,
		expires:     now.Add(c.cfg.LeaseTTL),
		outstanding: hashes,
	}
	c.leases[le.id] = le
	return LeaseReply{
		LeaseID: le.id,
		TTLMs:   c.cfg.LeaseTTL.Milliseconds(),
		Jobs:    jobs,
		Status:  c.statusLocked(),
	}
}

// heartbeat extends a live lease.
func (c *Coordinator) heartbeat(leaseID string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.Now()
	c.expireLocked(now)
	le, ok := c.leases[leaseID]
	if !ok {
		return false
	}
	le.expires = now.Add(c.cfg.LeaseTTL)
	return true
}

// completeLease ingests a lease's outcome: every uploaded cell is
// re-fingerprinted from the decoded payload and checked against the feed's
// wanted set before it may touch the store; rejected and reported-failed
// cells re-queue (within the attempt budget), and any leased cell the
// upload did not account for re-queues as well. Results are accepted even
// when the lease already expired — the cells are content-addressed, so a
// late upload that verifies is identical to the re-issued computation it
// raced.
func (c *Coordinator) completeLease(req CompleteRequest) CompleteReply {
	// Fingerprint verification is pure (canonical JSON + SHA-256 per
	// cell) and the upload size is client-controlled, so it happens
	// before the lock: a fat or hostile upload must not stall the mutex
	// every lease and heartbeat handler needs.
	type verified struct {
		claimed string
		res     sweep.Result
		err     error
	}
	opened := make([]verified, len(req.Cells))
	for i, wc := range req.Cells {
		opened[i].claimed = wc.Result.Key.Hash()
		opened[i].res, opened[i].err = wc.Open()
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(c.cfg.Now())
	le := c.leases[req.LeaseID] // nil when the lease already expired
	owned := make(map[string]bool)
	if le != nil {
		for _, h := range le.outstanding {
			owned[h] = true
		}
	}

	var rep CompleteReply
	accepted := make([]sweep.Result, 0, len(req.Cells))
	settled := make(map[string]bool)
	for _, v := range opened {
		claimed, res := v.claimed, v.res
		if v.err != nil {
			// The corrupt cell stays unsettled; the lease cleanup below
			// re-queues it for another worker.
			rep.Rejected = append(rep.Rejected, CellFailure{Hash: claimed, Err: v.err.Error()})
			continue
		}
		cl, ok := c.cells[claimed]
		if !ok {
			rep.Rejected = append(rep.Rejected, CellFailure{Hash: claimed, Err: "cell is not part of this grid's feed"})
			continue
		}
		settled[claimed] = true
		accepted = append(accepted, res)
		rep.Accepted++
		if cl.state == cellDone {
			// Idempotent re-delivery (lease expired, cell re-issued and
			// completed twice): identical payloads merge as a no-op; a
			// divergent one is a conflict surfaced by Merge below.
			continue
		}
		switch cl.state {
		case cellLeased:
			c.leasedN--
		case cellPending:
			// Late upload for a cell already re-queued: its stale queue
			// entry is skipped when it reaches the front.
			c.pendingN--
		case cellFailed:
			// A verified late upload recovers a cell the attempt budget
			// had written off (its slow worker finished after all). The
			// counters must move together or done+failed overshoots the
			// cell count and the completion condition never fires.
			c.failedN--
		}
		cl.state = cellDone
		c.doneN++
		c.logf("[%d/%d] %s %s tlb=%d buf=%d  from %s",
			c.cached+c.doneN+c.failedN, c.cached+len(c.cells),
			cl.job.SourceLabel(), cl.job.Mech.Label(),
			cl.job.Config.TLB.Entries, cl.job.Config.BufferEntries, req.Worker)
	}
	if len(accepted) > 0 {
		if _, err := c.cfg.Store.Merge(accepted); err != nil {
			c.conflicts = append(c.conflicts, fmt.Sprintf("worker %s: %v", req.Worker, err))
			c.logf("sweepd: %v", err)
		}
	}
	// Failure reports only count against cells this lease still owns — a
	// late report for a cell that already expired back to the feed (or
	// settled through another worker) must not double-queue or re-penalize
	// it.
	for _, f := range req.Failed {
		if owned[f.Hash] && !settled[f.Hash] {
			settled[f.Hash] = true
			c.requeueLocked(f.Hash, fmt.Sprintf("worker %s: %s", req.Worker, f.Err))
		}
	}
	if le != nil {
		delete(c.leases, req.LeaseID)
		// Cells the upload did not account for — rejected corrupt ones
		// included — go back to the feed.
		for _, h := range le.outstanding {
			if !settled[h] {
				c.requeueLocked(h, fmt.Sprintf("worker %s returned the lease without settling the cell", req.Worker))
			}
		}
	}
	c.checkCompleteLocked()
	rep.Status = c.statusLocked()
	return rep
}
