package prefetch_test

// Differential harness: replays recorded and synthetic reference streams
// through each optimized mechanism and its naive reference model
// (reference_test.go) and asserts identical prediction sequences, so
// hot-path tricks (flat arrays, per-set rings, no maps on the miss path)
// can never silently change behaviour. Every kind in the sweep registry
// has a TestDifferential<Kind> entry point here; the AST gate in
// internal/sweep/coverage_test.go enforces that new kinds add theirs.

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"tlbprefetch/internal/core"
	"tlbprefetch/internal/prefetch"
	"tlbprefetch/internal/trace"
	"tlbprefetch/internal/workload"
)

// diffStream produces one deterministic reference stream.
type diffStream struct {
	name string
	feed func(t *testing.T, emit func(pc, vaddr uint64))
}

const diffRefs = 25_000

// syntheticStream feeds a workload model's generated references directly.
func syntheticStream(name string) diffStream {
	return diffStream{name: "synthetic/" + name, feed: func(t *testing.T, emit func(pc, vaddr uint64)) {
		w, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("unknown workload %q", name)
		}
		workload.Generate(w, diffRefs, func(pc, vaddr uint64) bool {
			emit(pc, vaddr)
			return true
		})
	}}
}

// recordedStream writes a workload to a v2 block trace file, then feeds the
// decoded recording — the genuine record/replay path.
func recordedStream(name string) diffStream {
	return diffStream{name: "recorded/" + name, feed: func(t *testing.T, emit func(pc, vaddr uint64)) {
		w, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("unknown workload %q", name)
		}
		path := filepath.Join(t.TempDir(), name+".trc")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		bw, err := trace.NewBlockWriter(f)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := workload.GenerateTo(w, diffRefs, bw); err != nil {
			t.Fatal(err)
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		r, closer, err := trace.OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		defer closer.Close()
		var buf [4096]trace.Ref
		for {
			n, err := r.ReadBatch(buf[:])
			if err != nil {
				break
			}
			for _, ref := range buf[:n] {
				emit(ref.PC, ref.VAddr)
			}
		}
	}}
}

// diffStreams is the shared stimulus set: two recorded traces and three
// synthetic workloads spanning strided (galgel), pointer-chasing (mcf) and
// mixed (swim) behaviour.
func diffStreams() []diffStream {
	return []diffStream{
		recordedStream("mcf"),
		recordedStream("adpcm-enc"),
		syntheticStream("swim"),
		syntheticStream("mcf"),
		syntheticStream("galgel"),
	}
}

// missEvents converts a raw reference stream into the miss-event stream a
// simulator would produce, deterministically:
//
//   - consecutive events never repeat a page (a page that just filled the
//     TLB cannot immediately miss again — the invariant mechanisms like DP
//     and MP rely on);
//   - BufferHit follows a fixed pseudo-pattern (mechanisms must agree
//     under any interleaving, so any deterministic pattern serves);
//   - evictions replay a 128-entry FIFO shadow of recent misses, so the
//     stack-maintaining mechanisms (RP) see a full unlink/push workload.
func missEvents(t *testing.T, s diffStream, visit func(ev prefetch.Event)) {
	var (
		lastVPN  uint64
		hasLast  bool
		ring     [128]uint64
		ringHead uint64
	)
	s.feed(t, func(pc, vaddr uint64) {
		vpn := vaddr >> 12
		if hasLast && vpn == lastVPN {
			return
		}
		ev := prefetch.Event{
			VPN:       vpn,
			PC:        pc,
			BufferHit: (vpn^pc)%5 == 0,
		}
		if ringHead >= uint64(len(ring)) {
			if ev2 := ring[ringHead%uint64(len(ring))]; ev2 != vpn {
				ev.EvictedVPN, ev.HasEvicted = ev2, true
			}
		}
		ring[ringHead%uint64(len(ring))] = vpn
		ringHead++
		lastVPN, hasLast = vpn, true
		visit(ev)
	})
}

// diffConfig is one (implementation, reference) pair under one geometry.
type diffConfig struct {
	label string
	mk    func() prefetch.Prefetcher // nil Prefetcher = the "none" baseline
	mkRef func() refModel
}

// runDifferential replays every stream through every configuration pair,
// comparing prediction sequences event by event. The scratch buffer is
// reused across calls, as the simulator's hot path does.
func runDifferential(t *testing.T, configs []diffConfig) {
	for _, cfg := range configs {
		for _, s := range diffStreams() {
			t.Run(cfg.label+"/"+s.name, func(t *testing.T) {
				impl := cfg.mk()
				ref := cfg.mkRef()
				scratch := make([]uint64, 0, 64)
				n := 0
				missEvents(t, s, func(ev prefetch.Event) {
					if t.Failed() {
						return
					}
					var got []uint64
					if impl != nil {
						got = impl.OnMiss(ev, scratch[:0]).Prefetches
					}
					want := ref.onMiss(ev)
					if len(got) != len(want) {
						t.Errorf("event %d (vpn=%#x pc=%#x): got %d predictions %v, reference %d %v",
							n, ev.VPN, ev.PC, len(got), got, len(want), want)
						return
					}
					for i := range got {
						if got[i] != want[i] {
							t.Errorf("event %d (vpn=%#x pc=%#x): prediction %d: got %#x, reference %#x (got %v, want %v)",
								n, ev.VPN, ev.PC, i, got[i], want[i], got, want)
							return
						}
					}
					n++
				})
				if n < 1000 {
					t.Fatalf("stream %s produced only %d events — not a meaningful differential", s.name, n)
				}
			})
		}
	}
}

func TestDifferentialNone(t *testing.T) {
	runDifferential(t, []diffConfig{
		{label: "none", mk: func() prefetch.Prefetcher { return nil }, mkRef: func() refModel { return refNone{} }},
		{label: "nop", mk: func() prefetch.Prefetcher { return prefetch.Nop{} }, mkRef: func() refModel { return refNone{} }},
	})
}

func TestDifferentialSP(t *testing.T) {
	runDifferential(t, []diffConfig{
		{label: "tagged", mk: func() prefetch.Prefetcher { return prefetch.NewSequential(true) },
			mkRef: func() refModel { return refSP{tagged: true} }},
		{label: "untagged", mk: func() prefetch.Prefetcher { return prefetch.NewSequential(false) },
			mkRef: func() refModel { return refSP{tagged: false} }},
	})
}

func TestDifferentialSPA(t *testing.T) {
	runDifferential(t, []diffConfig{
		{label: "SP-A", mk: func() prefetch.Prefetcher { return prefetch.NewAdaptiveSequential() },
			mkRef: func() refModel { return &refSPA{} }},
	})
}

func TestDifferentialASP(t *testing.T) {
	var configs []diffConfig
	for _, g := range [][2]int{{64, 1}, {128, 4}} {
		entries, ways := g[0], g[1]
		configs = append(configs, diffConfig{
			label: fmt.Sprintf("r=%d,w=%d", entries, ways),
			mk:    func() prefetch.Prefetcher { return prefetch.NewASP(entries, ways) },
			mkRef: func() refModel { return newRefASP(entries, ways) },
		})
	}
	runDifferential(t, configs)
}

func TestDifferentialMP(t *testing.T) {
	var configs []diffConfig
	for _, g := range [][3]int{{64, 1, 2}, {128, 4, 3}} {
		entries, ways, slots := g[0], g[1], g[2]
		configs = append(configs, diffConfig{
			label: fmt.Sprintf("r=%d,w=%d,s=%d", entries, ways, slots),
			mk:    func() prefetch.Prefetcher { return prefetch.NewMarkov(entries, ways, slots) },
			mkRef: func() refModel { return newRefMP(entries, ways, slots) },
		})
	}
	runDifferential(t, configs)
}

func TestDifferentialRP(t *testing.T) {
	runDifferential(t, []diffConfig{
		{label: "degree=2", mk: func() prefetch.Prefetcher { return prefetch.NewRecency() },
			mkRef: func() refModel { return newRefRP(2) }},
	})
}

func TestDifferentialRP3(t *testing.T) {
	runDifferential(t, []diffConfig{
		{label: "degree=3", mk: func() prefetch.Prefetcher { return prefetch.NewRecencyDegree(3) },
			mkRef: func() refModel { return newRefRP(3) }},
	})
}

func dpGeometries() [][3]int { return [][3]int{{64, 1, 2}, {128, 4, 3}} }

func TestDifferentialDP(t *testing.T) {
	var configs []diffConfig
	for _, g := range dpGeometries() {
		entries, ways, slots := g[0], g[1], g[2]
		configs = append(configs, diffConfig{
			label: fmt.Sprintf("r=%d,w=%d,s=%d", entries, ways, slots),
			mk:    func() prefetch.Prefetcher { return core.NewDistance(entries, ways, slots) },
			mkRef: func() refModel { return newRefDP("DP", entries, ways, slots) },
		})
	}
	runDifferential(t, configs)
}

func TestDifferentialDPPC(t *testing.T) {
	var configs []diffConfig
	for _, g := range dpGeometries() {
		entries, ways, slots := g[0], g[1], g[2]
		configs = append(configs, diffConfig{
			label: fmt.Sprintf("r=%d,w=%d,s=%d", entries, ways, slots),
			mk:    func() prefetch.Prefetcher { return core.NewDistancePC(entries, ways, slots) },
			mkRef: func() refModel { return newRefDP("DP-PC", entries, ways, slots) },
		})
	}
	runDifferential(t, configs)
}

func TestDifferentialDP2(t *testing.T) {
	var configs []diffConfig
	for _, g := range dpGeometries() {
		entries, ways, slots := g[0], g[1], g[2]
		configs = append(configs, diffConfig{
			label: fmt.Sprintf("r=%d,w=%d,s=%d", entries, ways, slots),
			mk:    func() prefetch.Prefetcher { return core.NewDistance2(entries, ways, slots) },
			mkRef: func() refModel { return newRefDP("DP2", entries, ways, slots) },
		})
	}
	runDifferential(t, configs)
}

func TestDifferentialSTMS(t *testing.T) {
	var configs []diffConfig
	// A 64-entry ring wraps thousands of times over a stream, exercising
	// the staleness window; 4-way indexing exercises index-table eviction.
	for _, g := range [][3]int{{64, 1, 4}, {256, 4, 2}} {
		entries, ways, degree := g[0], g[1], g[2]
		configs = append(configs, diffConfig{
			label: fmt.Sprintf("r=%d,w=%d,d=%d", entries, ways, degree),
			mk:    func() prefetch.Prefetcher { return prefetch.NewSTMS(entries, ways, degree) },
			mkRef: func() refModel { return newRefSTMS(entries, ways, degree) },
		})
	}
	runDifferential(t, configs)
}

func TestDifferentialMASP(t *testing.T) {
	var configs []diffConfig
	for _, g := range [][3]int{{64, 1, 2}, {128, 4, 3}} {
		entries, ways, slots := g[0], g[1], g[2]
		configs = append(configs, diffConfig{
			label: fmt.Sprintf("r=%d,w=%d,s=%d", entries, ways, slots),
			mk:    func() prefetch.Prefetcher { return prefetch.NewMASP(entries, ways, slots) },
			mkRef: func() refModel { return newRefMASP(entries, ways, slots) },
		})
	}
	runDifferential(t, configs)
}

func TestDifferentialSBFP(t *testing.T) {
	runDifferential(t, []diffConfig{
		{label: "fixed", mk: func() prefetch.Prefetcher { return prefetch.NewSBFP() },
			mkRef: func() refModel { return newRefSBFP() }},
	})
}
