package memsys

import "testing"

func TestIssueSerializes(t *testing.T) {
	c := NewPipelinedChannel(50, 50)
	if got := c.Issue(0, 1); got != 50 {
		t.Fatalf("first op completes at %d, want 50", got)
	}
	// Issued while busy: queues behind.
	if got := c.Issue(10, 1); got != 100 {
		t.Fatalf("queued op completes at %d, want 100", got)
	}
	// Issued after idle: starts immediately.
	if got := c.Issue(500, 2); got != 600 {
		t.Fatalf("batch completes at %d, want 600", got)
	}
}

func TestIssueZero(t *testing.T) {
	c := NewPipelinedChannel(50, 50)
	if got := c.Issue(42, 0); got != 42 {
		t.Fatalf("zero ops returned %d, want 42", got)
	}
	if c.Busy(42) {
		t.Fatal("channel busy after zero ops")
	}
}

func TestBusy(t *testing.T) {
	c := NewPipelinedChannel(50, 50)
	c.Issue(0, 1)
	if !c.Busy(0) || !c.Busy(49) {
		t.Fatal("channel should be busy during service")
	}
	if c.Busy(50) {
		t.Fatal("channel should be free at completion cycle")
	}
}

func TestIssueEach(t *testing.T) {
	c := NewPipelinedChannel(10, 10)
	got := c.IssueEach(nil, 0, 3)
	want := []uint64{10, 20, 30}
	if len(got) != len(want) {
		t.Fatalf("IssueEach = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("IssueEach = %v, want %v", got, want)
		}
	}
	// Second batch queues behind the first, written over the reused
	// buffer without growing it.
	buf := got
	got = c.IssueEach(buf[:0], 5, 2)
	if len(got) != 2 || got[0] != 40 || got[1] != 50 {
		t.Fatalf("queued IssueEach = %v, want [40 50]", got)
	}
	if &got[0] != &buf[0] {
		t.Fatal("IssueEach reallocated a buffer with room to spare")
	}
	// n == 0 appends nothing and leaves the channel idle.
	if out := c.IssueEach(buf[:1], 100, 0); len(out) != 1 || out[0] != buf[0] {
		t.Fatalf("IssueEach(n=0) = %v, want dst unchanged", out)
	}
	if c.Busy(100) {
		t.Fatal("channel busy after zero ops")
	}
}

func TestZeroLatencyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewPipelinedChannel(0, 0) did not panic")
		}
	}()
	NewPipelinedChannel(0, 0)
}
