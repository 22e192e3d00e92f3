package serve_test

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"github.com/tintmalloc/tintmalloc/internal/invariant"
	"github.com/tintmalloc/tintmalloc/internal/phys"
	"github.com/tintmalloc/tintmalloc/internal/serve"
)

// TestClientCloseReleasesClaim retires a drained client: its claim
// leaves the counts the ladder consults, the registry drops it, and a
// second Close changes nothing.
func TestClientCloseReleasesClaim(t *testing.T) {
	top, m := bootPair(t, phys.DefaultSeparable)
	s, err := serve.New(top, m, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	banks := m.BankColorsOfNode(0)
	stay, err := s.NewClient(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := stay.SetColors(banks[:2], []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	wantBank, wantLLC := s.ClaimCounts()

	c, err := s.NewClient(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetColors(banks[1:3], []int{1, 2}); err != nil {
		t.Fatal(err)
	}
	if bank, llc := s.ClaimCounts(); bank[banks[1]] != 2 || llc[1] != 2 {
		t.Fatalf("claim counts with two clients: bank %d, LLC %d; want 2 and 2", bank[banks[1]], llc[1])
	}
	f, err := c.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Free(f); err != nil {
		t.Fatal(err)
	}
	c.Close()
	c.Close()
	if bank, llc := s.ClaimCounts(); !reflect.DeepEqual(bank, wantBank) || !reflect.DeepEqual(llc, wantLLC) {
		t.Fatalf("claim counts after Close differ from before the client was added")
	}
	if got := s.Clients(); len(got) != 1 || got[0] != stay {
		t.Fatalf("live clients after Close: %d, want only the first", len(got))
	}
	if _, err := c.Alloc(); !errors.Is(err, serve.ErrClosed) {
		t.Fatalf("Alloc on a retired client: %v, want ErrClosed", err)
	}
	auditServerClean(t, s)

	// A client retired while it still holds a frame breaks Close's
	// precondition; the auditor names the frame.
	f, err = stay.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	stay.Close()
	err = invariant.AuditServer(s).Err()
	if err == nil || !strings.Contains(err.Error(), "owned by unknown client 0") {
		t.Fatalf("audit with frame %d held by a retired client: %v", f, err)
	}
}
