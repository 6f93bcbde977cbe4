package prefetch_test

// Differential harness: replays recorded and synthetic reference streams
// through each optimized mechanism and its naive reference model
// (reference_test.go) and asserts identical prediction sequences, so
// hot-path tricks (flat arrays, per-set rings, no maps on the miss path)
// can never silently change behaviour. Every kind in the sweep registry
// has a TestDifferential<Kind> entry point here; the AST gate in
// internal/sweep/coverage_test.go enforces that new kinds add theirs.

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"
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

// sbfpFuzzStep is one decoded step of FuzzDifferentialSBFP's input: a miss
// event, optionally preceded by a Reset of both models.
type sbfpFuzzStep struct {
	ev    prefetch.Event
	reset bool
}

// Control-byte layout of FuzzDifferentialSBFP's input. Bit 0 is the event's
// BufferHit, bit 1 resets both models before it, bits 2-3 select how the
// page is chosen and bits 4-7 are the signed stride of a walk.
const (
	sbfpFuzzDelta   = 0 << 2 // next byte: signed step from the last page
	sbfpFuzzAbs     = 1 << 2 // next 8 bytes: the page, little-endian
	sbfpFuzzWalk    = 2 << 2 // next byte: walk length-1 at the stride in bits 4-7
	sbfpFuzzRevisit = 3 << 2 // next byte: revisit the page that many misses back
)

// sbfpFuzzMaxEvents caps a decoded stream, so inputs made of long walks
// keep the fuzzer's execution rate up.
const sbfpFuzzMaxEvents = 8192

// decodeSBFPFuzz turns fuzz bytes into a miss stream over the full 64-bit
// page space. Walks let a short input train a distance past the confidence
// threshold; revisits return to a page at a chosen distance in the stream.
func decodeSBFPFuzz(data []byte) []sbfpFuzzStep {
	var (
		steps []sbfpFuzzStep
		last  uint64
		hist  [256]uint64
		n     int
	)
	emit := func(vpn uint64, ctrl byte, reset bool) {
		steps = append(steps, sbfpFuzzStep{ev: prefetch.Event{VPN: vpn, BufferHit: ctrl&1 != 0}, reset: reset})
		hist[n%len(hist)] = vpn
		n++
		last = vpn
	}
	for i := 0; i < len(data) && n < sbfpFuzzMaxEvents; {
		ctrl := data[i]
		i++
		reset := ctrl&2 != 0
		switch ctrl & 0x0c {
		case sbfpFuzzAbs:
			if i+8 > len(data) {
				return steps
			}
			emit(binary.LittleEndian.Uint64(data[i:]), ctrl, reset)
			i += 8
		case sbfpFuzzWalk:
			if i >= len(data) {
				return steps
			}
			stride := uint64(int64(int8(ctrl)) >> 4)
			for k := 0; k <= int(data[i]); k++ {
				emit(last+stride, ctrl, reset && k == 0)
			}
			i++
		case sbfpFuzzRevisit:
			if i >= len(data) {
				return steps
			}
			back := int(data[i]) % len(hist)
			i++
			if back >= n {
				back = n - 1
			}
			vpn := last
			if back >= 0 {
				vpn = hist[(n-1-back)%len(hist)]
			}
			emit(vpn, ctrl, reset)
		default: // sbfpFuzzDelta
			if i >= len(data) {
				return steps
			}
			emit(last+uint64(int64(int8(data[i]))), ctrl, reset)
			i++
		}
	}
	return steps
}

// sbfpFuzzAbsPages encodes one absolute-page step per page.
func sbfpFuzzAbsPages(pages ...uint64) []byte {
	var b []byte
	for _, p := range pages {
		b = append(b, sbfpFuzzAbs)
		b = binary.LittleEndian.AppendUint64(b, p)
	}
	return b
}

// FuzzDifferentialSBFP replays arbitrary full-width page streams, with
// buffer hits and mid-stream Resets, through SBFP and refSBFP and asserts
// identical prediction sequences event by event. The corpus seeds the
// edges of the address space (where candidates are skipped), revisits at
// every free distance, and long walks that push distances over the
// confidence threshold so the PQ and its eviction penalty are exercised.
func FuzzDifferentialSBFP(f *testing.F) {
	top := ^uint64(0)
	f.Add(sbfpFuzzAbsPages(0, 1, 2, 3, 4, 5, 6, 7))
	f.Add(sbfpFuzzAbsPages(top-7, top-6, top-5, top-4, top-3, top-2, top-1, top))
	revisits := sbfpFuzzAbsPages(1 << 20)
	for d := 1; d <= 9; d++ {
		revisits = append(revisits, sbfpFuzzDelta, byte(d), sbfpFuzzRevisit, 1, sbfpFuzzDelta, byte(-d))
	}
	f.Add(revisits)
	// +1 walks across the top of the address space, -1 walks across page
	// 0, with a Reset between and buffer hits on the second walk.
	f.Add(append(sbfpFuzzAbsPages(top-600),
		sbfpFuzzWalk|1<<4, 255, sbfpFuzzWalk|1<<4, 255, sbfpFuzzWalk|1<<4|1, 255,
		sbfpFuzzAbs|2, 44, 1, 0, 0, 0, 0, 0, 0,
		sbfpFuzzWalk|0xf0|1, 255, sbfpFuzzWalk|0xf0, 255, sbfpFuzzWalk|0xf0, 40))
	// Interleaved strides: confident distances of both signs, PQ entries
	// evicted unused, and duplicate pages in the rings.
	f.Add(append(sbfpFuzzAbsPages(1<<40),
		sbfpFuzzWalk|2<<4, 200, sbfpFuzzWalk|0xe0, 150, sbfpFuzzWalk|3<<4, 200,
		sbfpFuzzRevisit, 7, sbfpFuzzRevisit, 30, sbfpFuzzDelta|1, 100, sbfpFuzzWalk|1<<4, 255))
	f.Fuzz(func(t *testing.T, data []byte) {
		impl, ref := prefetch.NewSBFP(), newRefSBFP()
		scratch := make([]uint64, 0, 64)
		for n, st := range decodeSBFPFuzz(data) {
			if st.reset {
				impl.Reset()
				ref = newRefSBFP()
			}
			got := impl.OnMiss(st.ev, scratch[:0]).Prefetches
			want := ref.onMiss(st.ev)
			if !slices.Equal(got, want) {
				t.Fatalf("event %d (vpn=%#x, reset=%v): got %v, reference %v", n, st.ev.VPN, st.reset, got, want)
			}
		}
	})
}
