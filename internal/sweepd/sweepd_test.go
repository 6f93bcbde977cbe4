package sweepd

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"tlbprefetch/internal/sim"
	"tlbprefetch/internal/sweep"
	"tlbprefetch/internal/trace"
	"tlbprefetch/internal/workload"
)

func testJobs(t testing.TB, refs uint64) []sweep.Job {
	t.Helper()
	g := sweep.Grid{
		Workloads:  []string{"swim", "mcf"},
		Mechs:      []sweep.Mech{{Kind: "DP", Rows: 256, Ways: 1, Slots: 2}, {Kind: "RP"}},
		TLBEntries: []int{64, 128},
		Refs:       refs,
	}
	jobs, err := g.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

// referenceStore runs the jobs single-process — the byte-identity baseline
// every distributed run must reproduce.
func referenceStore(t *testing.T, jobs []sweep.Job) *sweep.Store {
	t.Helper()
	st := sweep.NewStore()
	if _, _, err := (&sweep.Runner{Store: st}).Run(jobs); err != nil {
		t.Fatal(err)
	}
	return st
}

func storesEqual(t *testing.T, want, got *sweep.Store) {
	t.Helper()
	wb, err := want.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	gb, err := got.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wb, gb) {
		d, _ := sweep.DiffStores(want, got)
		t.Fatalf("stores differ:\n%s", d.Summary())
	}
}

func postJSON(t *testing.T, url string, body, reply any) int {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK && reply != nil {
		if err := json.NewDecoder(resp.Body).Decode(reply); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestCrossProcessDeterminism is the acceptance pin: the same grid swept
// (a) single-process and (b) through a coordinator with three concurrent
// workers stealing one-cell batches over loopback HTTP produces
// byte-identical stores.
func TestCrossProcessDeterminism(t *testing.T) {
	jobs := testJobs(t, 20_000)
	want := referenceStore(t, jobs)

	st := sweep.NewStore()
	coord, err := New(Config{Jobs: jobs, Store: st, MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	var (
		wg   sync.WaitGroup
		errs = make([]error, 3)
		sums = make([]sweep.Summary, 3)
	)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := &Worker{URL: srv.URL, ID: string(rune('A' + i)), Runner: &sweep.Runner{Workers: 2}}
			sums[i], errs[i] = w.Run(context.Background())
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if err := coord.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	ran := 0
	for _, s := range sums {
		ran += s.Ran
	}
	if ran != len(jobs) {
		t.Fatalf("workers ran %d cells in total, want %d", ran, len(jobs))
	}
	status := coord.Status()
	if !status.Complete || status.Done != len(jobs) || status.Failed != 0 {
		t.Fatalf("final status %+v", status)
	}
	storesEqual(t, want, st)
}

// TestWorkerDiesMidLease pins lease recovery: a worker leases cells and
// vanishes without completing; after the TTL its lease expires, the cells
// return to the feed, a live worker steals them, and the final store is
// identical to the single-process run.
func TestWorkerDiesMidLease(t *testing.T) {
	jobs := testJobs(t, 20_000)
	want := referenceStore(t, jobs)

	clk := newFakeClock()
	st := sweep.NewStore()
	coord, err := New(Config{Jobs: jobs, Store: st, LeaseTTL: time.Minute, MaxBatch: 3, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	// The doomed worker takes three cells and dies (never completes,
	// never heartbeats).
	var doomed LeaseReply
	postJSON(t, srv.URL+PathLease, LeaseRequest{Worker: "doomed", Max: 3}, &doomed)
	if len(doomed.Jobs) != 3 {
		t.Fatalf("leased %d cells, want 3", len(doomed.Jobs))
	}
	if s := coord.Status(); s.Leased != 3 || s.Pending != len(jobs)-3 {
		t.Fatalf("status after lease: %+v", s)
	}

	// Before the TTL passes the cells stay owned (a live worker polling
	// now must not steal them)...
	clk.advance(30 * time.Second)
	if s := coord.Status(); s.Leased != 3 {
		t.Fatalf("cells stolen before expiry: %+v", s)
	}
	// ...after it, they return to the feed.
	clk.advance(31 * time.Second)
	if s := coord.Status(); s.Leased != 0 || s.Pending != len(jobs) {
		t.Fatalf("lease did not expire: %+v", s)
	}

	w := &Worker{URL: srv.URL, ID: "survivor", Runner: &sweep.Runner{Workers: 2}}
	if _, err := w.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := coord.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	storesEqual(t, want, st)
}

// TestHeartbeatKeepsLeaseAlive pins the other half of the lease contract:
// a heartbeating worker may hold cells past the nominal TTL, and a
// heartbeat for an expired lease reports Gone.
func TestHeartbeatKeepsLeaseAlive(t *testing.T) {
	jobs := testJobs(t, 10_000)
	clk := newFakeClock()
	coord, err := New(Config{Jobs: jobs, LeaseTTL: time.Minute, MaxBatch: 2, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	var lr LeaseReply
	postJSON(t, srv.URL+PathLease, LeaseRequest{Worker: "slow", Max: 2}, &lr)
	if len(lr.Jobs) != 2 {
		t.Fatalf("leased %d cells, want 2", len(lr.Jobs))
	}
	for i := 0; i < 4; i++ { // 4 × 45s = 3 min, far past the 1-min TTL
		clk.advance(45 * time.Second)
		if code := postJSON(t, srv.URL+PathHeartbeat, HeartbeatRequest{LeaseID: lr.LeaseID}, nil); code != http.StatusOK {
			t.Fatalf("heartbeat %d rejected with %d", i, code)
		}
	}
	if s := coord.Status(); s.Leased != 2 {
		t.Fatalf("heartbeated lease lost its cells: %+v", s)
	}
	clk.advance(2 * time.Minute) // no heartbeat now: the lease dies
	if code := postJSON(t, srv.URL+PathHeartbeat, HeartbeatRequest{LeaseID: lr.LeaseID}, nil); code != http.StatusGone {
		t.Fatalf("heartbeat for expired lease returned %d, want %d", code, http.StatusGone)
	}
	if s := coord.Status(); s.Leased != 0 || s.Pending != len(jobs) {
		t.Fatalf("expired lease not recovered: %+v", s)
	}
}

// TestCorruptedUploadRejected pins ingest verification: a result whose
// payload does not hash to its claimed fingerprint is rejected, the cell
// returns to the feed, and an honest worker then completes the grid to the
// byte-identical store. An upload for a cell outside the grid is rejected
// too.
func TestCorruptedUploadRejected(t *testing.T) {
	jobs := testJobs(t, 20_000)
	want := referenceStore(t, jobs)

	st := sweep.NewStore()
	coord, err := New(Config{Jobs: jobs, Store: st, MaxBatch: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	var lr LeaseReply
	postJSON(t, srv.URL+PathLease, LeaseRequest{Worker: "liar", Max: 2}, &lr)
	if len(lr.Jobs) != 2 {
		t.Fatalf("leased %d cells, want 2", len(lr.Jobs))
	}
	// Run the leased cells honestly, then corrupt the first result after
	// sealing it, so its fingerprint no longer matches.
	results, _, err := (&sweep.Runner{}).Run(lr.Jobs)
	if err != nil {
		t.Fatal(err)
	}
	corrupt, err := sweep.SealResult(results[0])
	if err != nil {
		t.Fatal(err)
	}
	corrupt.Result.Stats.BufferHits += 17
	good, err := sweep.SealResult(results[1])
	if err != nil {
		t.Fatal(err)
	}
	// And a result for a cell no grid asked for.
	alien := results[1]
	alien.Key.Refs = 999_999
	alienWire, err := sweep.SealResult(alien)
	if err != nil {
		t.Fatal(err)
	}

	var rep CompleteReply
	postJSON(t, srv.URL+PathComplete, CompleteRequest{
		LeaseID: lr.LeaseID, Worker: "liar",
		Cells: []sweep.WireResult{corrupt, good, alienWire},
	}, &rep)
	if rep.Accepted != 1 || len(rep.Rejected) != 2 {
		t.Fatalf("accepted %d rejected %d, want 1/2: %+v", rep.Accepted, len(rep.Rejected), rep.Rejected)
	}
	// The good cell settled; the corrupted one is back in the feed with
	// the 6 never-leased cells.
	if rep.Status.Done != 1 || rep.Status.Pending != len(jobs)-1 {
		t.Fatalf("status after corrupt upload: %+v", rep.Status)
	}
	if _, ok, _ := st.Get(results[0].Key.Hash()); ok {
		t.Fatal("corrupted cell reached the store")
	}
	if _, ok, _ := st.Get(alien.Key.Hash()); ok {
		t.Fatal("alien cell reached the store")
	}

	// The rejected cell is back in the feed; an honest worker finishes.
	w := &Worker{URL: srv.URL, ID: "honest", Runner: &sweep.Runner{Workers: 2}}
	if _, err := w.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := coord.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	storesEqual(t, want, st)
}

// TestCoordinatorRestartResumesFromStore pins crash recovery: a
// coordinator built over a persisted store re-feeds only the dirty cells,
// and the completed store matches the single-process run byte for byte.
func TestCoordinatorRestartResumesFromStore(t *testing.T) {
	jobs := testJobs(t, 20_000)
	want := referenceStore(t, jobs)

	// "First life": three cells complete before the crash; the store is
	// saved (as the coordinator's periodic persistence would).
	path := filepath.Join(t.TempDir(), "store.json")
	st, err := sweep.OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := (&sweep.Runner{Store: st}).Run(jobs[:3]); err != nil {
		t.Fatal(err)
	}
	if err := st.Save(); err != nil {
		t.Fatal(err)
	}

	// "Second life": reopen the store; only the 5 dirty cells feed out.
	re, err := sweep.OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := New(Config{Jobs: jobs, Store: re})
	if err != nil {
		t.Fatal(err)
	}
	if s := coord.Status(); s.Cached != 3 || s.Pending != len(jobs)-3 {
		t.Fatalf("restart status %+v, want 3 cached / %d pending", s, len(jobs)-3)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	w := &Worker{URL: srv.URL, ID: "resumer", Runner: &sweep.Runner{Workers: 2}}
	sum, err := w.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sum.Ran != len(jobs)-3 {
		t.Fatalf("resumed worker ran %d cells, want %d", sum.Ran, len(jobs)-3)
	}
	if err := coord.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	storesEqual(t, want, re)
	if err := re.Save(); err != nil {
		t.Fatal(err)
	}
	onDisk, err := sweep.OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	storesEqual(t, want, onDisk)
}

// TestFailedCellsExhaustAttempts pins the failure budget: a cell whose
// every attempt fails is eventually marked permanently failed, the feed
// reports completion, and Err names the cell deterministically.
func TestFailedCellsExhaustAttempts(t *testing.T) {
	jobs := testJobs(t, 10_000)[:2]
	coord, err := New(Config{Jobs: jobs, MaxAttempts: 2, MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	for attempt := 0; attempt < 2; attempt++ {
		var lr LeaseReply
		postJSON(t, srv.URL+PathLease, LeaseRequest{Worker: "broken", Max: 8}, &lr)
		if lr.Done || len(lr.Jobs) != 2 {
			t.Fatalf("attempt %d: lease %+v", attempt, lr)
		}
		req := CompleteRequest{LeaseID: lr.LeaseID, Worker: "broken"}
		for _, j := range lr.Jobs {
			req.Failed = append(req.Failed, CellFailure{Hash: j.Key().Hash(), Err: "simulated stream error"})
		}
		postJSON(t, srv.URL+PathComplete, req, &CompleteReply{})
	}
	var final LeaseReply
	postJSON(t, srv.URL+PathLease, LeaseRequest{Worker: "broken", Max: 8}, &final)
	if !final.Done || final.Status.Failed != 2 {
		t.Fatalf("feed not complete after attempt budget: %+v", final)
	}
	select {
	case <-coord.Done():
	default:
		t.Fatal("completion channel not closed")
	}
	err = coord.Err()
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("failed permanently")) {
		t.Fatalf("Err() = %v", err)
	}
}

// TestMixCellsNamedInErrors pins that the coordinator names a mix cell by
// its mix label ("galgel+gcc"), not by the empty single-source label, both
// when New rejects an invalid job and when a leased mix cell fails
// permanently through lease expiry.
func TestMixCellsNamedInErrors(t *testing.T) {
	mixJob := func() sweep.Job {
		return sweep.Job{
			Mix: &sweep.Mix{Sources: []sweep.Source{
				sweep.WorkloadSource("galgel"), sweep.WorkloadSource("gcc"),
			}},
			Mech:   sweep.Mech{Kind: "RP"},
			Config: sim.Default(),
			Refs:   10_000,
		}
	}

	bad := mixJob()
	bad.Seed = 7 // mix cells replay the members' own streams
	if _, err := New(Config{Jobs: []sweep.Job{bad}}); err == nil || !strings.Contains(err.Error(), "galgel+gcc") {
		t.Fatalf("New on an invalid mix job: err = %v, want it to name galgel+gcc", err)
	}

	clk := newFakeClock()
	coord, err := New(Config{Jobs: []sweep.Job{mixJob()}, LeaseTTL: time.Minute, MaxAttempts: 1, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	var lr LeaseReply
	postJSON(t, srv.URL+PathLease, LeaseRequest{Worker: "silent", Max: 1}, &lr)
	if len(lr.Jobs) != 1 {
		t.Fatalf("leased %d cells, want 1", len(lr.Jobs))
	}
	clk.advance(2 * time.Minute)
	if s := coord.Status(); s.Failed != 1 {
		t.Fatalf("mix cell not failed after expiry: %+v", s)
	}
	if err := coord.Err(); err == nil || !strings.Contains(err.Error(), "galgel+gcc") {
		t.Fatalf("Err() = %v, want it to name galgel+gcc", err)
	}
}

// TestWorkerResolvesTraceDigests pins the trace contract of the feed:
// cells travel as digests (no paths), a worker without the recording
// reports them unrunnable (and the feed re-queues them), and a worker
// holding the file resolves the digest, re-verifies it, and completes the
// grid to the byte-identical store.
func TestWorkerResolvesTraceDigests(t *testing.T) {
	const refs = 15_000
	dir := t.TempDir()
	path := filepath.Join(dir, "app.trc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	bw, err := trace.NewBinaryWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := workload.ByName("swim")
	workload.Generate(w, refs, func(pc, vaddr uint64) bool {
		if err := bw.Write(trace.Ref{PC: pc, VAddr: vaddr}); err != nil {
			t.Fatal(err)
		}
		return true
	})
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	src, err := sweep.TraceSource(path)
	if err != nil {
		t.Fatal(err)
	}
	g := sweep.Grid{
		Traces: []sweep.Source{src},
		Mechs:  []sweep.Mech{{Kind: "RP"}, {Kind: "DP", Rows: 256, Ways: 1, Slots: 2}},
		Refs:   refs,
	}
	jobs, err := g.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	want := referenceStore(t, jobs)

	st := sweep.NewStore()
	coord, err := New(Config{Jobs: jobs, Store: st, MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	// A worker without the recording leases the cells once and reports
	// them unrunnable; the wire never carried a usable path.
	var lr LeaseReply
	postJSON(t, srv.URL+PathLease, LeaseRequest{Worker: "bare", Max: 8}, &lr)
	if len(lr.Jobs) != 2 {
		t.Fatalf("leased %d cells, want 2", len(lr.Jobs))
	}
	for _, j := range lr.Jobs {
		if j.Source.TracePath != "" {
			t.Fatalf("wire job leaked a local trace path %q", j.Source.TracePath)
		}
	}
	req := CompleteRequest{LeaseID: lr.LeaseID, Worker: "bare"}
	for _, j := range lr.Jobs {
		req.Failed = append(req.Failed, CellFailure{Hash: j.Key().Hash(), Err: "no local file for trace"})
	}
	postJSON(t, srv.URL+PathComplete, req, &CompleteReply{})
	if s := coord.Status(); s.Pending != 2 {
		t.Fatalf("unrunnable cells not re-queued: %+v", s)
	}

	// A worker holding the file completes the grid.
	wk := &Worker{URL: srv.URL, ID: "archivist", Traces: map[string]string{src.TraceSHA256: path}}
	if _, err := wk.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := coord.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	storesEqual(t, want, st)
}

// TestLateUploadRecoversFailedCell pins the counter discipline around a
// cell the attempt budget wrote off: when its slow worker's verified
// upload finally lands, the cell flips failed → done (failedN and doneN
// move together), the grid still reports complete, and Err clears — the
// completion condition must fire, not overshoot.
func TestLateUploadRecoversFailedCell(t *testing.T) {
	jobs := testJobs(t, 10_000)[:2]
	want := referenceStore(t, jobs)

	clk := newFakeClock()
	st := sweep.NewStore()
	coord, err := New(Config{Jobs: jobs, Store: st, LeaseTTL: time.Minute, MaxAttempts: 1, MaxBatch: 1, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	// The slow worker leases one cell and goes silent; with MaxAttempts 1
	// the expiry fails it permanently.
	var slow LeaseReply
	postJSON(t, srv.URL+PathLease, LeaseRequest{Worker: "slow", Max: 1}, &slow)
	if len(slow.Jobs) != 1 {
		t.Fatalf("leased %d cells, want 1", len(slow.Jobs))
	}
	clk.advance(2 * time.Minute)
	if s := coord.Status(); s.Failed != 1 {
		t.Fatalf("cell not failed after expiry: %+v", s)
	}

	// A healthy worker settles the other cell.
	w := &Worker{URL: srv.URL, ID: "healthy"}
	if _, err := w.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s := coord.Status(); !s.Complete || s.Done != 1 || s.Failed != 1 {
		t.Fatalf("status before late upload: %+v", s)
	}
	if coord.Err() == nil {
		t.Fatal("failed cell not reported")
	}

	// The slow worker's verified result finally arrives.
	results, _, err := (&sweep.Runner{}).Run(slow.Jobs)
	if err != nil {
		t.Fatal(err)
	}
	late, err := sweep.SealResult(results[0])
	if err != nil {
		t.Fatal(err)
	}
	var rep CompleteReply
	postJSON(t, srv.URL+PathComplete, CompleteRequest{
		LeaseID: slow.LeaseID, Worker: "slow", Cells: []sweep.WireResult{late},
	}, &rep)
	if rep.Accepted != 1 {
		t.Fatalf("late upload not accepted: %+v", rep)
	}
	if s := rep.Status; !s.Complete || s.Done != 2 || s.Failed != 0 {
		t.Fatalf("status after recovery: %+v", s)
	}
	if err := coord.Err(); err != nil {
		t.Fatalf("recovered grid still reports failure: %v", err)
	}
	storesEqual(t, want, st)
}

// TestMergeConflictFailsTheRun pins divergence detection: two
// fingerprint-valid uploads that disagree on one content-addressed cell
// (a worker running drifted simulator code without a schema bump) must
// surface through Err — byte-identity is the backend's contract, so a
// silent first-write-wins store would be worse than a failed run.
func TestMergeConflictFailsTheRun(t *testing.T) {
	jobs := testJobs(t, 10_000)[:1]
	coord, err := New(Config{Jobs: jobs, MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	var lr LeaseReply
	postJSON(t, srv.URL+PathLease, LeaseRequest{Worker: "honest", Max: 1}, &lr)
	results, _, err := (&sweep.Runner{}).Run(lr.Jobs)
	if err != nil {
		t.Fatal(err)
	}
	honest, err := sweep.SealResult(results[0])
	if err != nil {
		t.Fatal(err)
	}
	postJSON(t, srv.URL+PathComplete, CompleteRequest{
		LeaseID: lr.LeaseID, Worker: "honest", Cells: []sweep.WireResult{honest},
	}, &CompleteReply{})
	if err := coord.Err(); err != nil {
		t.Fatalf("clean run reports %v", err)
	}

	// A drifted worker's late upload: different payload, valid seal.
	drifted := results[0]
	drifted.Stats.BufferHits += 5
	sealed, err := sweep.SealResult(drifted)
	if err != nil {
		t.Fatal(err)
	}
	var rep CompleteReply
	postJSON(t, srv.URL+PathComplete, CompleteRequest{
		LeaseID: "L999", Worker: "drifted", Cells: []sweep.WireResult{sealed},
	}, &rep)
	err = coord.Err()
	if err == nil || !strings.Contains(err.Error(), "merge conflict") {
		t.Fatalf("divergent upload not surfaced: %v", err)
	}
	// The first-accepted value stays in the store.
	got, ok, _ := coord.Store().Get(results[0].Key.Hash())
	if !ok || got.Stats != results[0].Stats {
		t.Fatal("conflict replaced the first-accepted value")
	}
}
