package sweepd

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"tlbprefetch/internal/sweep"
)

// FuzzCompleteLease posts arbitrary bytes to the completion endpoint of a
// coordinator holding one live lease over a small grid. Whatever the body,
// the coordinator must not panic, must answer 2xx or 4xx, must keep its
// progress counters summing to the grid, and must let nothing but grid
// cells into the store. The seeds are a real sealed upload and tampered
// variants of it: altered stats, a forged fingerprint, a key outside the
// grid, a duplicated cell, a failure report, an unknown lease and
// malformed JSON.
func FuzzCompleteLease(f *testing.F) {
	jobs := testJobs(f, 2_000)
	results, _, err := (&sweep.Runner{}).Run(jobs)
	if err != nil {
		f.Fatal(err)
	}
	grid := make(map[string]bool, len(jobs))
	for _, j := range jobs {
		grid[j.Key().Hash()] = true
	}
	seal := func(r sweep.Result) sweep.WireResult {
		w, err := sweep.SealResult(r)
		if err != nil {
			f.Fatal(err)
		}
		return w
	}
	body := func(req CompleteRequest) []byte { return mustJSON(f, req) }
	// newCoordinator leases the first two cells of the feed as lease L1.
	const maxBatch = 2
	newCoordinator := func(t *testing.T) (*Coordinator, *sweep.Store, http.Handler) {
		st := sweep.NewStore()
		c, err := New(Config{Jobs: jobs, Store: st, MaxBatch: maxBatch})
		if err != nil {
			t.Fatal(err)
		}
		h := c.Handler()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, PathLease,
			bytes.NewReader(mustJSON(t, LeaseRequest{Worker: "w", Max: maxBatch}))))
		if rec.Code != http.StatusOK {
			t.Fatalf("lease: HTTP %d", rec.Code)
		}
		return c, st, h
	}

	good := seal(results[0])
	stats := good
	stats.Result.Stats.BufferHits++
	forged := good
	forged.Fingerprint = "00"
	alien := results[0]
	alien.Key.Refs++
	f.Add(body(CompleteRequest{LeaseID: "L1", Worker: "w", Cells: []sweep.WireResult{good, seal(results[1])}}))
	f.Add(body(CompleteRequest{LeaseID: "L1", Worker: "w", Cells: []sweep.WireResult{stats, forged}}))
	f.Add(body(CompleteRequest{LeaseID: "L1", Worker: "w", Cells: []sweep.WireResult{seal(alien), good, good}}))
	f.Add(body(CompleteRequest{LeaseID: "L1", Worker: "w",
		Failed: []CellFailure{{Hash: results[1].Key.Hash(), Err: "no trace"}, {Hash: "x", Err: ""}}}))
	f.Add(body(CompleteRequest{LeaseID: "L9", Worker: "w", Cells: []sweep.WireResult{seal(results[3])}}))
	f.Add([]byte(`{"lease_id":"L1","cells":[{"result":{"key":{}},"fp":""}]}`))
	f.Add([]byte(`{"lease_id":"L1","cells":[{"result":null}`))
	f.Add([]byte(`null`))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		c, st, h := newCoordinator(t)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, PathComplete, bytes.NewReader(data)))
		if rec.Code < 200 || rec.Code >= 500 || (rec.Code >= 300 && rec.Code < 400) {
			t.Fatalf("HTTP %d: %s", rec.Code, rec.Body.String())
		}
		s := c.Status()
		if s.Cached+s.Done+s.Pending+s.Leased+s.Failed != s.Total || s.Total != len(grid) {
			t.Fatalf("status counters do not sum to the %d-cell grid: %+v", len(grid), s)
		}
		for _, k := range st.IndexKeys() {
			if !grid[k.Hash()] {
				t.Fatalf("store holds a cell outside the grid: %+v", k)
			}
		}
	})
}

// mustJSON marshals a request body.
func mustJSON(tb testing.TB, v any) []byte {
	tb.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}
