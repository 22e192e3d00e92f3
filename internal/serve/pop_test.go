package serve

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/tintmalloc/tintmalloc/internal/phys"
	"github.com/tintmalloc/tintmalloc/internal/topology"
)

// popMappings are the mappings the pop differential runs under: the
// full separable matrix, the Opteron's sparse overlapped one, and one
// with 7 LLC bits, whose 128 colors make every occupancy row two
// words.
var popMappings = []func() (*phys.Mapping, error){
	func() (*phys.Mapping, error) { return phys.DefaultSeparable(64<<20, 4) },
	func() (*phys.Mapping, error) { return phys.OpteronOverlapped(64<<20, 4) },
	func() (*phys.Mapping, error) {
		return phys.NewMapping(phys.MappingConfig{
			MemBytes:    128 << 20,
			Nodes:       4,
			ChannelBits: []uint{23},
			RankBits:    []uint{22},
			BankBits:    []uint{19, 20, 21},
			LLCBits:     []uint{12, 13, 14, 15, 16, 17, 18},
			RowShift:    14,
		})
	},
}

// servePopRun drives one shard's row walks and the bucket-by-bucket
// reference walks (popref_test.go) through one decoded op sequence,
// on two servers over the same mapping.
//
// The first two bytes pick the mapping and the shard's node. Then
// each op byte selects a park (of a frame not yet parked, on a bucket
// of the claim or any bucket), a popMatch with a random seq, a
// popUnassigned, a popAnyParked, or a new claim: MEM+LLC, bank-only
// or LLC-only, with bank colors on this node and on others, LLC
// colors including the first and the last, and random claim counts
// for the borrow rung. After every pop both sides must return the
// same frame; at the end every bucket and occupancy bit must agree.
// It returns how many pops of each kind found a frame: popMatch under
// a MEM+LLC, bank-only and LLC-only claim, popUnassigned and
// popAnyParked.
func servePopRun(t *testing.T, data []byte) (hits [5]int) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	m, err := popMappings[next()%len(popMappings)]()
	if err != nil {
		t.Fatal(err)
	}
	node := next() % m.Nodes()
	top := topology.Opteron6128()
	var srv [2]*Server // the row walks, then the reference
	for i := range srv {
		if srv[i], err = New(top, m, Config{}); err != nil {
			t.Fatal(err)
		}
	}
	sh, ref := srv[0].shards[node], srv[1].shards[node]
	nLLC, nodeBanks := m.NumLLCColors(), m.BankColorsOfNode(node)

	// byBucket lists the node's frames of each bucket.
	byBucket := make([][]phys.Frame, len(nodeBanks)*nLLC)
	for f := sh.base; f < sh.base+phys.Frame(m.Frames()/uint64(m.Nodes())); f++ {
		b := (m.FrameBankColor(f)-sh.bankLo)*nLLC + m.FrameLLCColor(f)
		byBucket[b] = append(byBucket[b], f)
	}
	parked := make(map[phys.Frame]bool)

	var cl [2]*Client
	var bank, llc []int
	recolor := func() {
		mode := next() % 3
		bank, llc = bank[:0], llc[:0]
		if mode != 2 {
			for n := 1 + next()%4; n > 0; n-- {
				bc := next() % m.NumBankColors()
				if next()%4 != 0 {
					bc = nodeBanks[bc%len(nodeBanks)]
				}
				if !slices.Contains(bank, bc) {
					bank = append(bank, bc)
				}
			}
		}
		if mode != 1 {
			for n := 1 + next()%4; n > 0; n-- {
				lc := next() % nLLC
				switch next() % 4 {
				case 0:
					lc = 0
				case 1:
					lc = nLLC - 1
				}
				if !slices.Contains(llc, lc) {
					llc = append(llc, lc)
				}
			}
		}
		density := next() % 5
		claimed := func() int32 {
			if next()%4 < density {
				return 1
			}
			return 0
		}
		for i := range srv {
			cl[i] = &Client{srv: srv[i]}
			if err := cl[i].SetColors(bank, llc); err != nil {
				t.Fatal(err)
			}
		}
		// The borrow rung reads only the claim counts; set them
		// directly, the same on both sides.
		for bc := range srv[0].assignedBank {
			n := claimed()
			srv[0].assignedBank[bc].Store(n)
			srv[1].assignedBank[bc].Store(n)
		}
		for lc := range srv[0].assignedLLC {
			n := claimed()
			srv[0].assignedLLC[lc].Store(n)
			srv[1].assignedLLC[lc].Store(n)
		}
	}
	recolor()

	same := func(op int, what string, kind int, f phys.Frame, ok bool, rf phys.Frame, rok bool) {
		t.Helper()
		if f != rf || ok != rok {
			t.Fatalf("op %d: %s = (%d, %v), reference (%d, %v); claim bank %v LLC %v",
				op, what, f, ok, rf, rok, bank, llc)
		}
		if ok {
			delete(parked, f)
			hits[kind]++
		}
	}
	for op := 0; len(data) > 0; op++ {
		b := next()
		switch b % 16 {
		case 0, 1, 2, 3, 4, 5: // park
			bkt := (next()<<8 | next()) % len(byBucket)
			if b&16 != 0 { // onto the claim's colors
				li, lc := bkt/nLLC, bkt%nLLC
				if len(bank) > 0 {
					if bc := bank[next()%len(bank)]; m.NodeOfBankColor(bc) == node {
						li = bc - sh.bankLo
					}
				}
				if len(llc) > 0 {
					lc = llc[next()%len(llc)]
				}
				bkt = li*nLLC + lc
			}
			for _, f := range byBucket[bkt] {
				if !parked[f] {
					parked[f] = true
					sh.park(f, srv[0])
					ref.park(f, srv[1])
					break
				}
			}
		case 6, 7, 8, 9: // popMatch
			seq := uint64(next()<<8 | next())
			if b&16 != 0 {
				seq *= 0x9e3779b97f4a7c15
			}
			kind := 0
			if !cl[0].usingLLC {
				kind = 1
			} else if !cl[0].usingBank {
				kind = 2
			}
			f, ok := sh.popMatch(cl[0], seq)
			rf, rok := ref.refPopMatch(cl[1], seq)
			same(op, "popMatch", kind, f, ok, rf, rok)
		case 10, 11, 12:
			f, ok := sh.popUnassigned(cl[0], srv[0])
			rf, rok := ref.refPopUnassigned(cl[1], srv[1])
			same(op, "popUnassigned", 3, f, ok, rf, rok)
		case 13, 14:
			f, ok := sh.popAnyParked()
			rf, rok := ref.refPopAnyParked()
			same(op, "popAnyParked", 4, f, ok, rf, rok)
		default:
			recolor()
		}
	}

	for b := range sh.lists {
		bc, lc := nodeBanks[b/nLLC], b%nLLC
		if !slices.Equal(sh.lists[b], ref.lists[b]) {
			t.Fatalf("bucket (%d, %d) = %v, reference %v", bc, lc, sh.lists[b], ref.lists[b])
		}
		if sh.Occupied(bc, lc) != (len(sh.lists[b]) > 0) {
			t.Fatalf("bucket (%d, %d) holds %d frames, occupancy bit %v", bc, lc, len(sh.lists[b]), sh.Occupied(bc, lc))
		}
	}
	if n := sh.parkedN.Load(); n != int64(len(parked)) {
		t.Fatalf("%d frames parked, want %d", n, len(parked))
	}
	return hits
}

// FuzzServePop holds the shard's row walks to the bucket-by-bucket
// walks they replace (DESIGN.md Sec. 11.2).
func FuzzServePop(f *testing.F) {
	for _, seed := range servePopSeeds(12, 400) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) { servePopRun(t, data) })
}

// TestServePopMatchesReference runs the FuzzServePop check over
// seeded random op sequences covering every mapping and node, and
// requires every kind of pop to have found frames.
func TestServePopMatchesReference(t *testing.T) {
	var hits [5]int
	for _, data := range servePopSeeds(120, 1000) {
		for k, n := range servePopRun(t, data) {
			hits[k] += n
		}
	}
	t.Logf("frames popped: MEM+LLC %d, bank-only %d, LLC-only %d, unassigned %d, any parked %d",
		hits[0], hits[1], hits[2], hits[3], hits[4])
	for k, n := range hits {
		if n < 50 {
			t.Errorf("pop kind %d found only %d frames", k, n)
		}
	}
}

// servePopSeeds returns n random inputs of the given length. The
// first two bytes of input i cycle through the mappings and nodes so
// that every shape is covered.
func servePopSeeds(n, length int) [][]byte {
	rng := rand.New(rand.NewSource(1))
	out := make([][]byte, n)
	for i := range out {
		b := make([]byte, length)
		rng.Read(b)
		b[0], b[1] = byte(i%len(popMappings)), byte(i/len(popMappings)%4)
		out[i] = b
	}
	return out
}
