package phys

import (
	"math/rand"
	"testing"
)

// Property test for the precomputed decode tables: the table-backed
// hot-path accessors must equal the bit-gather reference for random
// addresses under every mapping shape — separable, Opteron-overlapped,
// and (to exercise the fallback route) a mapping with a select bit
// below the page shift.
func TestTableAccessorsMatchGather(t *testing.T) {
	const memBytes = 256 << 20
	sep, err := DefaultSeparable(memBytes, 4)
	if err != nil {
		t.Fatal(err)
	}
	ovl, err := OpteronOverlapped(memBytes, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Channel bit 11 sits inside the page offset, so decode varies
	// within a frame and the accessors must keep the gather route.
	sub, err := NewMapping(MappingConfig{
		MemBytes:    memBytes,
		Nodes:       4,
		ChannelBits: []uint{11},
		RankBits:    []uint{20},
		BankBits:    []uint{17, 18, 19},
		LLCBits:     []uint{12, 13, 14, 15, 16},
		RowShift:    14,
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		m    *Mapping
	}{
		{"separable", sep},
		{"overlapped", ovl},
		{"sub-page-bits", sub},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.m
			rng := rand.New(rand.NewSource(42))
			for i := 0; i < 20000; i++ {
				a := Addr(rng.Uint64() % m.MemBytes())
				if got, want := m.Decode(a), m.GatherDecode(a); got != want {
					t.Fatalf("Decode(%#x) = %+v, gather reference %+v", a, got, want)
				}
				if got, want := m.BankColor(a), m.GatherBankColor(a); got != want {
					t.Fatalf("BankColor(%#x) = %d, gather reference %d", a, got, want)
				}
				if got, want := m.LLCColor(a), m.GatherLLCColor(a); got != want {
					t.Fatalf("LLCColor(%#x) = %d, gather reference %d", a, got, want)
				}
			}
			// Frame accessors agree with the gather reference on the
			// frame base address.
			for i := 0; i < 2000; i++ {
				f := Frame(rng.Uint64() % m.Frames())
				if got, want := m.FrameBankColor(f), m.GatherBankColor(f.Base()); got != want {
					t.Fatalf("FrameBankColor(%d) = %d, gather reference %d", f, got, want)
				}
				if got, want := m.FrameLLCColor(f), m.GatherLLCColor(f.Base()); got != want {
					t.Fatalf("FrameLLCColor(%d) = %d, gather reference %d", f, got, want)
				}
			}
		})
	}
}

// The tables are built from per-byte gathers over the frame number.
// Every entry of all three must equal the bit-gather reference at the
// frame's base, on mappings whose select bits sit in every byte of
// the frame number, below the page shift, and past installed memory.
func TestTablesMatchGatherOnEveryFrame(t *testing.T) {
	sep, err := DefaultSeparable(256<<20, 4)
	if err != nil {
		t.Fatal(err)
	}
	ovl, err := OpteronOverlapped(256<<20, 4)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := NewMapping(MappingConfig{
		MemBytes: 256 << 20, Nodes: 4,
		ChannelBits: []uint{11}, RankBits: []uint{20}, BankBits: []uint{17, 18, 19},
		LLCBits: []uint{12, 13, 14, 15, 16}, RowShift: 14,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Three 64 MiB nodes: node boundaries off any power of two, select
	// bits in both bytes of the frame number and above bit 24, and a
	// bank bit (30) past installed memory, which reads 0 everywhere.
	three, err := NewMapping(MappingConfig{
		MemBytes: 3 * 64 << 20, Nodes: 3,
		ChannelBits: []uint{25}, RankBits: []uint{24, 13}, BankBits: []uint{26, 19, 30},
		LLCBits: []uint{12, 27, 20, 15}, RowShift: 14,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		m    *Mapping
	}{
		{"separable", sep},
		{"overlapped", ovl},
		{"sub-page-bits", sub},
		{"three-nodes-high-bits", three},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.m
			if m.locTable == nil {
				t.Fatal("no location table")
			}
			for f := Frame(0); uint64(f) < m.Frames(); f++ {
				l := m.GatherDecode(f.Base())
				want := uint32(l.Bank)<<locBankShift | uint32(l.Rank)<<locRankShift |
					uint32(l.Channel)<<locChannelShift | uint32(l.Node)<<locNodeShift
				if m.locTable[f] != want {
					t.Fatalf("frame %d: location %#x, gather reference %#x (%+v)", f, m.locTable[f], want, l)
				}
				if got, want := int(m.bankTable[f]), m.GatherBankColor(f.Base()); got != want {
					t.Fatalf("frame %d: bank color %d, gather reference %d", f, got, want)
				}
				if got, want := int(m.llcTable[f]), m.GatherLLCColor(f.Base()); got != want {
					t.Fatalf("frame %d: LLC color %d, gather reference %d", f, got, want)
				}
			}
		})
	}
}
