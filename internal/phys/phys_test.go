package phys

import (
	"testing"
	"testing/quick"
)

const testMem = 256 << 20 // 256 MiB

func defaultMapping(t *testing.T) *Mapping {
	t.Helper()
	m, err := DefaultSeparable(testMem, 4)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestDefaultSeparableCounts(t *testing.T) {
	m := defaultMapping(t)
	if got, want := m.NumBankColors(), 128; got != want {
		t.Errorf("NumBankColors = %d, want %d", got, want)
	}
	if got, want := m.NumLLCColors(), 32; got != want {
		t.Errorf("NumLLCColors = %d, want %d", got, want)
	}
	if got, want := m.Channels(), 2; got != want {
		t.Errorf("Channels = %d, want %d", got, want)
	}
	if got, want := m.Ranks(), 2; got != want {
		t.Errorf("Ranks = %d, want %d", got, want)
	}
	if got, want := m.Banks(), 8; got != want {
		t.Errorf("Banks = %d, want %d", got, want)
	}
	if got, want := m.Frames(), uint64(testMem/PageSize); got != want {
		t.Errorf("Frames = %d, want %d", got, want)
	}
}

func TestNodeRanges(t *testing.T) {
	m := defaultMapping(t)
	for n := 0; n < 4; n++ {
		base, limit := m.NodeRange(n)
		if m.NodeOf(base) != n {
			t.Errorf("NodeOf(base of node %d) = %d", n, m.NodeOf(base))
		}
		if m.NodeOf(limit-1) != n {
			t.Errorf("NodeOf(limit-1 of node %d) = %d", n, m.NodeOf(limit-1))
		}
	}
}

func TestLLCColorBits(t *testing.T) {
	m := defaultMapping(t)
	// LLC color is bits 12-16: frame number & 31.
	for f := Frame(0); f < 64; f++ {
		want := int(f) & 31
		if got := m.FrameLLCColor(f); got != want {
			t.Errorf("FrameLLCColor(%d) = %d, want %d", f, got, want)
		}
	}
}

func TestEq1Composition(t *testing.T) {
	m := defaultMapping(t)
	// Construct an address with known node/channel/rank/bank and
	// verify Eq. 1 composition.
	nodeBase, _ := m.NodeRange(2)
	a := nodeBase | (1 << 21) | (0 << 20) | (5 << 17) // channel 1, rank 0, bank 5
	l := m.Decode(a)
	if l.Node != 2 || l.Channel != 1 || l.Rank != 0 || l.Bank != 5 {
		t.Fatalf("Decode = %+v, want node 2 channel 1 rank 0 bank 5", l)
	}
	want := ((2*2+1)*2+0)*8 + 5
	if got := m.BankColor(a); got != want {
		t.Errorf("BankColor = %d, want %d", got, want)
	}
}

func TestBankColorNodeInverse(t *testing.T) {
	m := defaultMapping(t)
	for bc := 0; bc < m.NumBankColors(); bc++ {
		n := m.NodeOfBankColor(bc)
		found := false
		for _, c := range m.BankColorsOfNode(n) {
			if c == bc {
				found = true
			}
		}
		if !found {
			t.Errorf("bank color %d not listed under its node %d", bc, n)
		}
	}
}

// Property: every frame's bank color names the same node the frame's
// address range belongs to.
func TestFrameBankColorLocality(t *testing.T) {
	m := defaultMapping(t)
	f := func(raw uint32) bool {
		fr := Frame(uint64(raw) % m.Frames())
		bc := m.FrameBankColor(fr)
		return m.NodeOfBankColor(bc) == m.NodeOfFrame(fr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: all addresses within one frame share the frame's LLC and
// bank color under the separable mapping.
func TestIntraFrameColorUniform(t *testing.T) {
	m := defaultMapping(t)
	f := func(raw uint32, off uint16) bool {
		fr := Frame(uint64(raw) % m.Frames())
		a := fr.Base() + Addr(uint64(off)%PageSize)
		return m.LLCColor(a) == m.FrameLLCColor(fr) &&
			m.BankColor(a) == m.FrameBankColor(fr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: bank colors are uniformly distributed — over all frames of
// one node, every local bank color appears equally often.
func TestBankColorUniformCoverage(t *testing.T) {
	m := defaultMapping(t)
	counts := make(map[int]uint64)
	base, limit := m.NodeRange(0)
	for f := FrameOf(base); f < FrameOf(limit); f++ {
		counts[m.FrameBankColor(f)]++
	}
	per := m.BanksPerNode()
	if len(counts) != per {
		t.Fatalf("node 0 frames cover %d bank colors, want %d", len(counts), per)
	}
	var first uint64
	for _, c := range counts {
		if first == 0 {
			first = c
		} else if c != first {
			t.Fatalf("uneven bank color coverage: %v", counts)
		}
	}
}

func TestOverlappedMappingSparsity(t *testing.T) {
	m, err := OpteronOverlapped(testMem, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.NumBankColors(); got != 128 {
		t.Fatalf("overlapped NumBankColors = %d, want 128", got)
	}
	// Because bank bits 15 and 16 are also LLC color bits, a frame's
	// bank partially determines its LLC color: the combination
	// matrix must be sparse (fewer than 128*32 observed pairs).
	pairs := make(map[[2]int]bool)
	for f := Frame(0); uint64(f) < m.Frames(); f++ {
		pairs[[2]int{m.FrameBankColor(f), m.FrameLLCColor(f)}] = true
	}
	if len(pairs) >= 128*32 {
		t.Errorf("overlapped mapping populated %d pairs, expected sparse (<%d)", len(pairs), 128*32)
	}
	if len(pairs) == 0 {
		t.Error("no pairs observed")
	}
}

func TestRowColDecode(t *testing.T) {
	m := defaultMapping(t)
	// Within one row span (16 KB), consecutive lines share a row.
	a0 := Addr(0)
	a1 := Addr(LineSize)
	l0, l1 := m.Decode(a0), m.Decode(a1)
	if l0.Row != l1.Row {
		t.Errorf("adjacent lines in different rows: %d vs %d", l0.Row, l1.Row)
	}
	if l1.Col != l0.Col+1 {
		t.Errorf("columns not sequential: %d then %d", l0.Col, l1.Col)
	}
	// Crossing the row span changes the row.
	a2 := Addr(1 << m.RowShift())
	if l2 := m.Decode(a2); l2.Row == l0.Row {
		t.Errorf("addresses %#x and %#x share row %d across row boundary", a0, a2, l0.Row)
	}
}

func TestMappingValidation(t *testing.T) {
	cases := []MappingConfig{
		{MemBytes: testMem, Nodes: 0, LLCBits: []uint{12}, RowShift: 14},
		{MemBytes: 0, Nodes: 4, LLCBits: []uint{12}, RowShift: 14},
		{MemBytes: testMem + 1, Nodes: 4, LLCBits: []uint{12}, RowShift: 14},
		{MemBytes: testMem, Nodes: 4, LLCBits: nil, RowShift: 14},
		{MemBytes: testMem, Nodes: 4, LLCBits: []uint{5}, RowShift: 14}, // below page shift
		{MemBytes: testMem, Nodes: 4, LLCBits: []uint{12}, RowShift: 3}, // below line shift
		{MemBytes: testMem, Nodes: 4, LLCBits: []uint{12}, BankBits: []uint{60}, RowShift: 14},
		// One page past the 48-bit address space, and the 2^63 that
		// uint64(x*(1<<30)) yields for a NaN, infinite or huge -mem.
		{MemBytes: 1<<48 + 4*PageSize, Nodes: 4, LLCBits: []uint{12}, RowShift: 14},
		{MemBytes: 1 << 63, Nodes: 4, LLCBits: []uint{12}, RowShift: 14},
	}
	for i, c := range cases {
		if _, err := NewMapping(c); err == nil {
			t.Errorf("NewMapping(bad %d) succeeded, want error", i)
		}
	}
}

func TestFrameHelpers(t *testing.T) {
	a := Addr(0x12345)
	if got, want := FrameOf(a), Frame(0x12); got != want {
		t.Errorf("FrameOf = %#x, want %#x", got, want)
	}
	if got, want := Frame(0x12).Base(), Addr(0x12000); got != want {
		t.Errorf("Base = %#x, want %#x", got, want)
	}
	if got, want := Offset(a), uint64(0x345); got != want {
		t.Errorf("Offset = %#x, want %#x", got, want)
	}
}

func TestValidBounds(t *testing.T) {
	m := defaultMapping(t)
	if !m.Valid(0) || !m.Valid(testMem-1) {
		t.Error("Valid rejected in-range address")
	}
	if m.Valid(testMem) {
		t.Error("Valid accepted out-of-range address")
	}
	if !m.ValidFrame(Frame(m.Frames() - 1)) {
		t.Error("ValidFrame rejected last frame")
	}
	if m.ValidFrame(Frame(m.Frames())) {
		t.Error("ValidFrame accepted out-of-range frame")
	}
}

func TestBitAccessorsAreCopies(t *testing.T) {
	m := defaultMapping(t)
	b := m.BankBits()
	b[0] = 63
	if m.BankBits()[0] == 63 {
		t.Error("BankBits returned internal slice, not a copy")
	}
}

// Property: ComboCompatible agrees with a brute-force frame scan.
func TestComboCompatibleMatchesBruteForce(t *testing.T) {
	for _, build := range []func(uint64, int) (*Mapping, error){DefaultSeparable, OpteronOverlapped} {
		m, err := build(testMem, 4)
		if err != nil {
			t.Fatal(err)
		}
		// Brute force: observe which pairs actually occur.
		seen := make(map[[2]int]bool)
		for f := Frame(0); uint64(f) < m.Frames(); f++ {
			seen[[2]int{m.FrameBankColor(f), m.FrameLLCColor(f)}] = true
		}
		for bc := 0; bc < m.NumBankColors(); bc++ {
			for lc := 0; lc < m.NumLLCColors(); lc++ {
				if got, want := m.ComboCompatible(bc, lc), seen[[2]int{bc, lc}]; got != want {
					t.Fatalf("ComboCompatible(%d,%d) = %v, brute force says %v", bc, lc, got, want)
				}
			}
		}
	}
}

func TestSeparableColors(t *testing.T) {
	sep, err := DefaultSeparable(testMem, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !sep.SeparableColors() {
		t.Error("default mapping reported non-separable")
	}
	over, err := OpteronOverlapped(testMem, 4)
	if err != nil {
		t.Fatal(err)
	}
	if over.SeparableColors() {
		t.Error("overlapped mapping reported separable")
	}
}

func TestFrameColorTablesMatchDirect(t *testing.T) {
	m := defaultMapping(t)
	bank, llc := m.FrameColorTables()
	if uint64(len(bank)) != m.Frames() || uint64(len(llc)) != m.Frames() {
		t.Fatalf("table lengths %d/%d", len(bank), len(llc))
	}
	for _, f := range []Frame{0, 1, 31, 1000, Frame(m.Frames() - 1)} {
		if int(bank[f]) != m.FrameBankColor(f) || int(llc[f]) != m.FrameLLCColor(f) {
			t.Errorf("table mismatch at frame %d", f)
		}
	}
}
