// Package stats aggregates and formats experiment results: the plain and
// miss-rate-weighted averages of the paper's Table 2, the ASCII / CSV
// table rendering used by cmd/experiments and shown throughout
// docs/EXPERIMENTS.md, and the canonical serialization that
// internal/sweep's content-addressed result store is built on.
package stats

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
)

// Canonical returns the canonical byte encoding of v used for content
// addressing and for the sweep store's on-disk format: compact JSON with
// struct fields in declaration order and map keys sorted (both guaranteed
// by encoding/json). Two equal values always canonicalize to identical
// bytes, so hashes and stored files are stable across runs, worker counts
// and platforms.
func Canonical(v any) ([]byte, error) {
	return json.Marshal(v)
}

// Fingerprint returns the hex SHA-256 of Canonical(v) — the stable content
// address of a configuration or result.
func Fingerprint(v any) (string, error) {
	b, err := Canonical(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// VerifyFingerprint recomputes Fingerprint(v) and checks it against want.
// It is the ingest-side half of the content-addressing contract: a receiver
// (the sweep store, the distributed coordinator) re-derives the fingerprint
// from the payload it actually decoded, so a value corrupted or tampered
// with in transit can never be accepted under its claimed address.
func VerifyFingerprint(v any, want string) error {
	got, err := Fingerprint(v)
	if err != nil {
		return err
	}
	if !strings.EqualFold(got, want) {
		return fmt.Errorf("stats: fingerprint mismatch: payload hashes to %.12s…, claimed %.12s…", got, want)
	}
	return nil
}

// Mean returns the arithmetic mean of xs (0 for an empty slice) — the
// paper's (Σ p_i)/n.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// WeightedMean returns Σ(w_i·x_i)/Σ(w_i) (0 when the weights sum to 0) —
// the paper's miss-rate weighting Σ(m_i·p_i)/Σ(m_i).
func WeightedMean(xs, ws []float64) float64 {
	if len(xs) != len(ws) {
		panic("stats: mismatched value/weight lengths")
	}
	var num, den float64
	for i := range xs {
		num += ws[i] * xs[i]
		den += ws[i]
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// Table is a simple column-aligned text table builder.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable builds a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.header))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		b.WriteString("\n")
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (cells containing commas
// are quoted).
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString(",")
			}
			if strings.ContainsAny(c, ",\"\n") {
				b.WriteString(`"` + strings.ReplaceAll(c, `"`, `""`) + `"`)
			} else {
				b.WriteString(c)
			}
		}
		b.WriteString("\n")
	}
	writeRow(t.header)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// F formats a float with 3 decimals (the paper's accuracy precision).
func F(x float64) string { return fmt.Sprintf("%.3f", x) }

// F2 formats a float with 2 decimals (the paper's Table 2/3 precision).
func F2(x float64) string { return fmt.Sprintf("%.2f", x) }
