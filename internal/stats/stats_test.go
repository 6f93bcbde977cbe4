package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v", got)
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Fatalf("Mean = %v", got)
	}
}

func TestWeightedMean(t *testing.T) {
	// The paper's formula: Σ(m_i·p_i)/Σ(m_i).
	xs := []float64{1.0, 0.0}
	ws := []float64{3.0, 1.0}
	if got := WeightedMean(xs, ws); got != 0.75 {
		t.Fatalf("WeightedMean = %v", got)
	}
	if got := WeightedMean([]float64{1}, []float64{0}); got != 0 {
		t.Fatalf("zero-weight mean = %v", got)
	}
}

func TestWeightedMeanPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on length mismatch")
		}
	}()
	WeightedMean([]float64{1}, []float64{1, 2})
}

// Property: a weighted mean lies between min and max of its inputs.
func TestQuickWeightedMeanBounds(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) < 2 {
			return true
		}
		n := len(raw) / 2
		xs := make([]float64, n)
		ws := make([]float64, n)
		for i := 0; i < n; i++ {
			xs[i] = float64(raw[i]) / 65535
			ws[i] = float64(raw[n+i])/65535 + 0.001
		}
		m := WeightedMean(xs, ws)
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, x := range xs {
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
		return m >= lo-1e-12 && m <= hi+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("app", "accuracy")
	tb.AddRow("gzip", "0.535")
	tb.AddRow("x", "1.0")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "app ") || !strings.Contains(lines[0], "accuracy") {
		t.Fatalf("header: %q", lines[0])
	}
	if !strings.Contains(lines[1], "---") {
		t.Fatalf("separator: %q", lines[1])
	}
}

func TestTableShortRowsPadded(t *testing.T) {
	tb := NewTable("a", "b", "c")
	tb.AddRow("only")
	out := tb.String()
	if !strings.Contains(out, "only") {
		t.Fatal("row lost")
	}
}

func TestCSV(t *testing.T) {
	tb := NewTable("name", "note")
	tb.AddRow("plain", "hello")
	tb.AddRow("comma", "a,b")
	tb.AddRow("quote", `say "hi"`)
	got := tb.CSV()
	want := "name,note\nplain,hello\ncomma,\"a,b\"\nquote,\"say \"\"hi\"\"\"\n"
	if got != want {
		t.Fatalf("CSV:\n%q\nwant\n%q", got, want)
	}
}

func TestFormatters(t *testing.T) {
	if F(0.123456) != "0.123" {
		t.Fatalf("F = %q", F(0.123456))
	}
	if F2(0.987) != "0.99" {
		t.Fatalf("F2 = %q", F2(0.987))
	}
}

func TestCanonicalAndFingerprint(t *testing.T) {
	type key struct {
		B map[string]int
		A string
	}
	v := key{A: "x", B: map[string]int{"z": 1, "a": 2}}
	c1, err := Canonical(v)
	if err != nil {
		t.Fatal(err)
	}
	c2, _ := Canonical(key{A: "x", B: map[string]int{"a": 2, "z": 1}})
	if string(c1) != string(c2) {
		t.Fatalf("canonical form depends on map insertion order: %s vs %s", c1, c2)
	}
	f1, err := Fingerprint(v)
	if err != nil {
		t.Fatal(err)
	}
	if len(f1) != 64 {
		t.Fatalf("fingerprint length %d, want 64 hex chars", len(f1))
	}
	f2, _ := Fingerprint(key{A: "y", B: v.B})
	if f1 == f2 {
		t.Fatal("distinct values share a fingerprint")
	}
	if _, err := Fingerprint(func() {}); err == nil {
		t.Fatal("unmarshalable value fingerprinted without error")
	}
}

func TestVerifyFingerprint(t *testing.T) {
	type payload struct {
		A int
		B string
	}
	v := payload{A: 7, B: "cell"}
	fp, err := Fingerprint(v)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyFingerprint(v, fp); err != nil {
		t.Fatalf("honest payload rejected: %v", err)
	}
	if err := VerifyFingerprint(v, strings.ToUpper(fp)); err != nil {
		t.Fatalf("hex case must not matter: %v", err)
	}
	tampered := v
	tampered.A++
	if err := VerifyFingerprint(tampered, fp); err == nil {
		t.Fatal("tampered payload verified")
	}
	if err := VerifyFingerprint(func() {}, fp); err == nil {
		t.Fatal("unmarshalable payload verified")
	}
}
