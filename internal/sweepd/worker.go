package sweepd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"slices"
	"time"

	"tlbprefetch/internal/sweep"
)

// Worker joins a coordinator's job feed: it leases batches of cells, runs
// them through the local sweep.Runner execution path (the same sharding
// and sim.Group coalescing a single-process sweep uses), and uploads
// fingerprinted results. Trace cells arrive as digests; the worker
// resolves them against its Traces map — or fetches the bytes from the
// coordinator's blob endpoint through Blobs — and the runner re-verifies
// each file's digest before simulating, so a stale local recording can
// never be uploaded under a fresh recording's key.
type Worker struct {
	// URL is the coordinator's base address, e.g. "http://host:9177" or
	// "https://host:9177" for a TLS coordinator.
	URL string
	// ID names the worker in coordinator logs (default "worker-<pid>").
	ID string
	// Token, when non-empty, is sent as a Bearer credential on every
	// request (including blob fetches). A coordinator that rejects it
	// answers 401, which the worker surfaces as a fatal error — wrong
	// credentials must fail loudly, not spin.
	Token string
	// Runner executes leased cells (nil: a zero Runner — GOMAXPROCS
	// shards, no local store).
	Runner *sweep.Runner
	// Traces maps trace digests to local file paths, from the worker's
	// own -trace flags. It is consulted before Blobs, so a locally held
	// recording is never re-downloaded.
	Traces map[string]string
	// Blobs, when non-nil, resolves trace digests the worker does not hold
	// locally by fetching them from the coordinator's blob endpoint into a
	// bounded on-disk cache. Run wires Blobs.Fetch to this coordinator
	// when it is nil.
	Blobs *BlobCache
	// MaxBatch caps cells requested per lease (0: the coordinator's
	// default).
	MaxBatch int
	// Retries bounds consecutive retryable request failures — transport
	// errors, 5xx replies, truncated bodies — before the worker concludes
	// the coordinator is gone (default 3). Each retry backs off
	// exponentially with jitter. Chaos tests raise it so sustained fault
	// injection cannot end the feed early.
	Retries int
	// Client is the HTTP client (nil: a default with a 30s timeout — the
	// protocol's requests all answer immediately, so a silently
	// partitioned coordinator must surface as a transport error, not
	// block the worker forever). Supply one with a TLS config to trust a
	// self-signed coordinator, or with a fault-injecting transport for
	// chaos testing.
	Client *http.Client
	// Rand drives backoff jitter (nil: time-seeded). Tests inject a
	// seeded source. It is only touched from the feed goroutine.
	Rand *rand.Rand
	// Logf, when non-nil, receives per-lease progress lines.
	Logf func(format string, args ...any)
}

// Run drains the coordinator's feed until the grid completes, returning
// the summary of cells this worker executed.
func (w *Worker) Run(ctx context.Context) (sweep.Summary, error) {
	runner := w.Runner
	if runner == nil {
		runner = &sweep.Runner{}
	}
	if w.Blobs != nil && w.Blobs.Fetch == nil {
		w.Blobs.Fetch = w.fetchBlob
	}
	rng := w.Rand
	if rng == nil {
		rng = rand.New(rand.NewSource(time.Now().UnixNano() ^ int64(os.Getpid())<<32))
	}
	f := &feed{w: w, ctx: ctx, rng: rng}
	defer f.stopHeartbeat()
	// Each lease runs on the local sharded path. A batch execution error
	// goes to Report, which fails the lease's cells back to the
	// coordinator for re-queueing, rather than ending the run.
	var total sweep.Summary
	for {
		jobs, err := f.NextBatch()
		if err != nil || len(jobs) == 0 {
			return total, err
		}
		results, sum, runErr := runner.Run(jobs)
		total.Total += sum.Total
		total.Cached += sum.Cached
		total.Ran += sum.Ran
		total.Shards += sum.Shards
		if err := f.Report(results, runErr); err != nil {
			return total, err
		}
	}
}

func (w *Worker) id() string {
	if w.ID != "" {
		return w.ID
	}
	return fmt.Sprintf("worker-%d", os.Getpid())
}

func (w *Worker) maxRetries() int {
	if w.Retries > 0 {
		return w.Retries
	}
	return 3
}

func (w *Worker) logf(format string, args ...any) {
	if w.Logf != nil {
		w.Logf(format, args...)
	}
}

// defaultClient bounds every protocol request: none of them long-poll, so
// anything slower than this is a dead or partitioned coordinator.
var defaultClient = &http.Client{Timeout: 30 * time.Second}

func (w *Worker) client() *http.Client {
	if w.Client != nil {
		return w.Client
	}
	return defaultClient
}

// transportError marks a failure to reach the coordinator at all (dial
// refused, connection reset, request timeout) or to read a complete reply
// from it (truncated body), as opposed to an answer it chose to send.
type transportError struct{ err error }

func (e transportError) Error() string { return e.err.Error() }
func (e transportError) Unwrap() error { return e.err }

func isTransport(err error) bool {
	var te transportError
	return errors.As(err, &te)
}

// statusError is a non-200 reply the coordinator chose to send.
type statusError struct {
	path, status, msg string
	code              int
}

func (e *statusError) Error() string {
	return fmt.Sprintf("sweepd: %s: coordinator replied %s: %s", e.path, e.status, e.msg)
}

// isRetryable reports whether a request is worth repeating: transport
// failures and truncated replies might heal, and a 5xx is the coordinator
// hiccuping, not rejecting. 4xx replies — auth failures above all — are
// deliberate answers; retrying them is spinning.
func isRetryable(err error) bool {
	if isTransport(err) {
		return true
	}
	var se *statusError
	return errors.As(err, &se) && se.code >= 500
}

// post sends a JSON request body and decodes a JSON reply. Non-200
// responses become statusErrors carrying the coordinator's message;
// failures to reach it at all — and replies that arrive truncated — are
// tagged as transport errors so the feed can tell a flaky path from a
// rejecting coordinator.
func (w *Worker) post(ctx context.Context, path string, body, reply any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.URL+path, bytes.NewReader(data))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	w.authorize(req)
	resp, err := w.client().Do(req)
	if err != nil {
		return transportError{err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return &statusError{path: path, status: resp.Status, msg: string(bytes.TrimSpace(msg)), code: resp.StatusCode}
	}
	if err := json.NewDecoder(resp.Body).Decode(reply); err != nil {
		return transportError{fmt.Errorf("sweepd: %s: decoding coordinator reply: %w", path, err)}
	}
	return nil
}

func (w *Worker) authorize(req *http.Request) {
	if w.Token != "" {
		req.Header.Set("Authorization", "Bearer "+w.Token)
	}
}

// fetchBlob streams one trace blob from the coordinator's content-addressed
// endpoint. A 404 is definitive (the coordinator holds no such file) and
// maps to ErrBlobUnavailable; other failures are retryable and the
// BlobCache spends its attempt budget on them.
func (w *Worker) fetchBlob(ctx context.Context, digest string) (io.ReadCloser, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.URL+PathBlob+digest, nil)
	if err != nil {
		return nil, err
	}
	w.authorize(req)
	resp, err := w.client().Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		if resp.StatusCode == http.StatusNotFound {
			return nil, fmt.Errorf("%w: %s", ErrBlobUnavailable, bytes.TrimSpace(msg))
		}
		return nil, fmt.Errorf("sweepd: blob fetch: coordinator replied %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	return resp.Body, nil
}

// feed speaks the coordinator's lease protocol for Worker.Run: NextBatch
// leases cells, Report uploads their outcome.
type feed struct {
	w   *Worker
	ctx context.Context
	rng *rand.Rand

	connected bool // at least one exchange with the coordinator succeeded
	dialTries int  // consecutive startup dial failures
	retries   int  // consecutive retryable failures after connecting

	leaseID     string
	ttl         time.Duration
	outstanding []string      // leased cell hashes, issue order
	prefailed   []CellFailure // cells unrunnable before simulation (missing trace)

	stopHB chan struct{}
	hbDone chan struct{}
}

// startupDialTries bounds how long a worker waits for a coordinator that
// is not listening yet (tries × ~200ms ≈ 10s).
const startupDialTries = 50

// jitter spreads a delay uniformly over [d/2, d]: when a restarted
// coordinator comes back, its workers must not stampede it in lockstep.
func (f *feed) jitter(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	half := d / 2
	return half + time.Duration(f.rng.Int63n(int64(half)+1))
}

// sleep pauses for the jittered delay or until the context ends.
func (f *feed) sleep(d time.Duration) error {
	select {
	case <-f.ctx.Done():
		return f.ctx.Err()
	case <-time.After(f.jitter(d)):
		return nil
	}
}

// backoff is the delay before retry number n (1-based): exponential from
// 100ms, clamped to 2s, jittered by sleep.
func retryBackoff(n int) time.Duration {
	d := 100 * time.Millisecond << uint(n-1)
	if d > 2*time.Second {
		d = 2 * time.Second
	}
	return d
}

// retry accounts one retryable failure: it reports whether the budget
// still allows another attempt, sleeping the backoff when it does.
func (f *feed) retry(err error) (again bool, sleepErr error) {
	f.retries++
	if f.retries > f.w.maxRetries() {
		return false, nil
	}
	f.w.logf("sweepd: %s: retrying after %v (%d/%d)", f.w.id(), err, f.retries, f.w.maxRetries())
	return true, f.sleep(retryBackoff(f.retries))
}

// NextBatch leases the next batch: it polls while the feed is empty,
// returns a drained signal when the coordinator reports completion, and
// otherwise resolves trace paths and starts the lease heartbeat. Dial
// failures before the first successful exchange retry briefly (the
// coordinator may still be binding its socket); after one, retryable
// failures back off with jitter up to the Retries budget — only a
// coordinator that stays unreachable through the whole budget means the
// feed is over. Deliberate rejections (401 above all) are fatal
// immediately.
func (f *feed) NextBatch() ([]sweep.Job, error) {
	for {
		if err := f.ctx.Err(); err != nil {
			return nil, err
		}
		var rep LeaseReply
		err := f.w.post(f.ctx, PathLease, LeaseRequest{Worker: f.w.id(), Max: f.w.MaxBatch}, &rep)
		if err != nil {
			if !isRetryable(err) {
				return nil, err
			}
			if f.connected {
				again, sleepErr := f.retry(err)
				if sleepErr != nil {
					return nil, sleepErr
				}
				if !again {
					f.w.logf("sweepd: %s: coordinator gone (%v) — treating the feed as complete", f.w.id(), err)
					return nil, nil
				}
				continue
			}
			f.dialTries++
			if f.dialTries >= startupDialTries {
				return nil, err
			}
			if err := f.sleep(200 * time.Millisecond); err != nil {
				return nil, err
			}
			continue
		}
		f.connected = true
		f.retries = 0
		if rep.Done {
			f.w.logf("sweepd: %s: feed complete (%d/%d cells done, %d failed)",
				f.w.id(), rep.Status.Cached+rep.Status.Done, rep.Status.Total, rep.Status.Failed)
			return nil, nil
		}
		if len(rep.Jobs) == 0 {
			retry := time.Duration(rep.RetryMs) * time.Millisecond
			if retry <= 0 {
				retry = 100 * time.Millisecond
			}
			if err := f.sleep(retry); err != nil {
				return nil, err
			}
			continue
		}

		f.leaseID = rep.LeaseID
		f.ttl = time.Duration(rep.TTLMs) * time.Millisecond
		f.outstanding = f.outstanding[:0]
		f.prefailed = nil
		// Heartbeat from the moment the lease exists: blob fetches below
		// may outlast the TTL on a slow link, and losing the lease to a
		// download would waste the coordinator's attempt budget.
		f.startHeartbeat()
		var runnable []sweep.Job
		for _, j := range rep.Jobs {
			h := j.Key().Hash()
			f.outstanding = append(f.outstanding, h)
			srcs, err := f.resolveSources(j.Sources())
			if err != nil {
				f.prefailed = append(f.prefailed, CellFailure{Hash: h, Err: err.Error()})
				continue
			}
			// j is a copy, but its Mix is a shared pointer: give the job a
			// Mix of its own, or every lease of the same mix would alias
			// one Sources slice.
			if j.Mix != nil {
				m := *j.Mix
				m.Sources = srcs
				j.Mix = &m
			} else {
				j.Source = srcs[0]
			}
			runnable = append(runnable, j)
		}
		f.w.logf("sweepd: %s: leased %d cells (%s)", f.w.id(), len(rep.Jobs), rep.LeaseID)
		if len(runnable) == 0 {
			// Nothing in the batch can run here; return the lease with
			// the failures, then back off before asking again. Without
			// the pause this worker would re-lease the same cells in a
			// tight loop, spending their whole attempt budget in
			// milliseconds before a worker that *does* hold the trace
			// files gets a chance to steal them. The server-sent RetryMs
			// hint, when present, takes precedence over the local clamp.
			ttl := f.ttl
			if err := f.Report(nil, nil); err != nil {
				return nil, err
			}
			backoff := time.Duration(rep.RetryMs) * time.Millisecond
			if backoff <= 0 {
				backoff = ttl / 4
				if backoff < 200*time.Millisecond {
					backoff = 200 * time.Millisecond
				}
				if backoff > 2*time.Second {
					backoff = 2 * time.Second
				}
			}
			if err := f.sleep(backoff); err != nil {
				return nil, err
			}
			continue
		}
		return runnable, nil
	}
}

// resolveSources returns a copy of a cell's sources with every trace's
// local path filled in (see resolveTrace).
func (f *feed) resolveSources(srcs []sweep.Source) ([]sweep.Source, error) {
	out := slices.Clone(srcs)
	for i := range out {
		if !out[i].IsTrace() {
			continue
		}
		path, err := f.resolveTrace(out[i].TraceSHA256)
		if err != nil {
			return nil, err
		}
		out[i].TracePath = path
	}
	return out, nil
}

// resolveTrace maps a leased cell's trace digest to a local path: the
// worker's own -trace files first, then the coordinator's blob endpoint
// through the bounded cache.
func (f *feed) resolveTrace(digest string) (string, error) {
	if path, ok := f.w.Traces[digest]; ok {
		return path, nil
	}
	if f.w.Blobs == nil {
		return "", fmt.Errorf("no local file for trace %.12s… (give the worker its -trace, or serve blobs from the coordinator)", digest)
	}
	return f.w.Blobs.Path(f.ctx, digest)
}

// Report uploads the lease's outcome. Cells absent from results — a batch
// execution error fails the whole batch — are reported failed so the
// coordinator can re-queue them within its attempt budget. The upload is
// idempotent (cells are content-addressed and the coordinator de-dupes),
// so retryable failures re-send it up to the Retries budget.
func (f *feed) Report(results []sweep.Result, runErr error) error {
	f.stopHeartbeat()
	req := CompleteRequest{LeaseID: f.leaseID, Worker: f.w.id(), Failed: f.prefailed}
	done := make(map[string]bool, len(results))
	for _, r := range results {
		wc, err := sweep.SealResult(r)
		if err != nil {
			return err
		}
		done[r.Key.Hash()] = true
		req.Cells = append(req.Cells, wc)
	}
	if runErr != nil {
		failed := make(map[string]bool, len(f.prefailed))
		for _, pf := range f.prefailed {
			failed[pf.Hash] = true
		}
		for _, h := range f.outstanding {
			if !done[h] && !failed[h] {
				req.Failed = append(req.Failed, CellFailure{Hash: h, Err: runErr.Error()})
			}
		}
		f.w.logf("sweepd: %s: lease %s failed: %v", f.w.id(), f.leaseID, runErr)
	}
	var rep CompleteReply
	for {
		err := f.w.post(f.ctx, PathComplete, req, &rep)
		if err == nil {
			f.retries = 0
			break
		}
		if !isRetryable(err) {
			return err
		}
		again, sleepErr := f.retry(err)
		if sleepErr != nil {
			return sleepErr
		}
		if again {
			continue
		}
		if f.connected {
			// The coordinator vanished mid-upload. Its lease will expire
			// and the cells re-issue if it comes back; nothing useful is
			// left for this worker to do with them.
			f.w.logf("sweepd: %s: completion upload for %s lost (%v)", f.w.id(), f.leaseID, err)
			f.leaseID, f.outstanding, f.prefailed = "", f.outstanding[:0], nil
			return nil
		}
		return err
	}
	for _, rj := range rep.Rejected {
		f.w.logf("sweepd: %s: coordinator rejected cell %.12s…: %s", f.w.id(), rj.Hash, rj.Err)
	}
	f.leaseID, f.outstanding, f.prefailed = "", f.outstanding[:0], nil
	return nil
}

// startHeartbeat keeps the current lease alive while the batch simulates.
func (f *feed) startHeartbeat() {
	interval := f.ttl / 3
	if interval <= 0 {
		interval = time.Second
	}
	f.stopHB = make(chan struct{})
	f.hbDone = make(chan struct{})
	leaseID := f.leaseID
	go func() {
		defer close(f.hbDone)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-f.stopHB:
				return
			case <-f.ctx.Done():
				return
			case <-t.C:
				// A failed heartbeat (coordinator restarted, lease
				// expired) is not fatal: the run finishes and the
				// completion upload is idempotent.
				var rep struct{}
				if err := f.w.post(f.ctx, PathHeartbeat, HeartbeatRequest{LeaseID: leaseID}, &rep); err != nil {
					f.w.logf("sweepd: %s: heartbeat for %s: %v", f.w.id(), leaseID, err)
				}
			}
		}
	}()
}

func (f *feed) stopHeartbeat() {
	if f.stopHB != nil {
		close(f.stopHB)
		<-f.hbDone
		f.stopHB, f.hbDone = nil, nil
	}
}
