package tlbprefetch_test

import (
	"bytes"
	"testing"

	"tlbprefetch"
)

func TestQuickStartFlow(t *testing.T) {
	cfg := tlbprefetch.DefaultConfig()
	pf := tlbprefetch.NewDistance(256, 1, 2)
	w, ok := tlbprefetch.WorkloadByName("swim")
	if !ok {
		t.Fatal("swim workload missing")
	}
	st := tlbprefetch.RunWorkload(cfg, pf, w, 200_000)
	if st.Refs != 200_000 {
		t.Fatalf("refs = %d", st.Refs)
	}
	if st.Misses == 0 || st.BufferHits == 0 {
		t.Fatalf("no prefetching activity: %+v", st)
	}
	if a := st.Accuracy(); a <= 0 || a > 1 {
		t.Fatalf("accuracy out of range: %v", a)
	}
}

func TestAllMechanismConstructors(t *testing.T) {
	mechs := []tlbprefetch.Prefetcher{
		tlbprefetch.NewDistance(256, 1, 2),
		tlbprefetch.NewDistancePC(256, 1, 2),
		tlbprefetch.NewDistance2(256, 1, 2),
		tlbprefetch.NewRecency(),
		tlbprefetch.NewMarkov(256, 1, 2),
		tlbprefetch.NewASP(256, 1),
		tlbprefetch.NewSequential(true),
	}
	w, _ := tlbprefetch.WorkloadByName("gap")
	for _, pf := range mechs {
		st := tlbprefetch.RunWorkload(tlbprefetch.DefaultConfig(), pf, w, 50_000)
		if st.Refs != 50_000 {
			t.Errorf("%s: refs = %d", pf.Name(), st.Refs)
		}
	}
}

func TestBaselineNilPrefetcher(t *testing.T) {
	w, _ := tlbprefetch.WorkloadByName("gzip")
	st := tlbprefetch.RunWorkload(tlbprefetch.DefaultConfig(), nil, w, 50_000)
	if st.BufferHits != 0 || st.Accuracy() != 0 {
		t.Fatalf("baseline prefetched: %+v", st)
	}
}

func TestWorkloadRegistryFacade(t *testing.T) {
	if got := len(tlbprefetch.Workloads()); got != 56 {
		t.Fatalf("workloads = %d, want 56", got)
	}
	if got := len(tlbprefetch.WorkloadsBySuite("MediaBench")); got != 20 {
		t.Fatalf("mediabench = %d, want 20", got)
	}
	if _, ok := tlbprefetch.WorkloadByName("not-a-benchmark"); ok {
		t.Fatal("invented workload")
	}
}

func TestTimingFacade(t *testing.T) {
	w, _ := tlbprefetch.WorkloadByName("ammp")
	base := tlbprefetch.RunWorkloadTimed(tlbprefetch.DefaultTimingConfig(), nil, w, 200_000)
	dp := tlbprefetch.RunWorkloadTimed(tlbprefetch.DefaultTimingConfig(),
		tlbprefetch.NewDistance(256, 1, 2), w, 200_000)
	if dp.Cycles >= base.Cycles {
		t.Fatalf("DP (%d cycles) did not beat baseline (%d)", dp.Cycles, base.Cycles)
	}
}

func TestTraceRoundTripThroughFacade(t *testing.T) {
	w, _ := tlbprefetch.WorkloadByName("bc")
	var buf bytes.Buffer
	bw, err := tlbprefetch.NewBinaryTraceWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	n, err := tlbprefetch.GenerateWorkload(w, 10_000, bw)
	if err != nil || n != 10_000 {
		t.Fatalf("generate = %d, %v", n, err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}

	br, err := tlbprefetch.NewBinaryTraceReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	s := tlbprefetch.NewSimulator(tlbprefetch.DefaultConfig(), tlbprefetch.NewDistance(256, 1, 2))
	if err := s.RunBatch(br); err != nil {
		t.Fatal(err)
	}
	fromTrace := s.Stats()

	// Driving the simulator from the trace must equal driving it directly.
	direct := tlbprefetch.RunWorkload(tlbprefetch.DefaultConfig(),
		tlbprefetch.NewDistance(256, 1, 2), w, 10_000)
	if fromTrace != direct {
		t.Fatalf("trace-driven %+v != direct %+v", fromTrace, direct)
	}
}

// TestCustomPrefetcher demonstrates (and verifies) that users can plug in
// their own mechanism through the public interface.
type nextTwo struct{}

func (nextTwo) Name() string { return "next-two" }
func (nextTwo) OnMiss(ev tlbprefetch.Event, dst []uint64) tlbprefetch.Action {
	return tlbprefetch.Action{Prefetches: append(dst, ev.VPN+1, ev.VPN+2)}
}
func (nextTwo) Reset() {}

func TestCustomPrefetcher(t *testing.T) {
	w, _ := tlbprefetch.WorkloadByName("gzip")
	st := tlbprefetch.RunWorkload(tlbprefetch.DefaultConfig(), nextTwo{}, w, 100_000)
	if st.Accuracy() <= 0.2 {
		t.Fatalf("next-two on a sequential-heavy workload: accuracy %.3f", st.Accuracy())
	}
}
