package kernel

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/tintmalloc/tintmalloc/internal/phys"
)

// Radix page-table differential tests: RadixPT against a plain map,
// the representation it replaced and its only reference. One op
// applier serves a seeded random log (TestRadixPTDifferential) and
// fuzzed bytes (FuzzRadixPT). Ops insert, delete and look up vpages in
// two clusters, one near 0 and one ptHighCluster pages up, so the
// biased root grows in both directions. Every Delete and Lookup must
// answer as the map does and Len must match it; the periodic whole
// check also requires Visit to yield exactly the map's mappings in
// strictly ascending vpage order (the order Process.VisitPages
// promises) and Leaves to count exactly the chunks the map has
// mappings in, so an emptied leaf is released.

const (
	ptOpInsert = iota
	ptOpDelete
	ptOpLookup
	numPTOps
)

// ptHighCluster is the vpage offset of the second cluster.
const ptHighCluster = 1 << 21

// ptModel pairs a RadixPT with its map reference.
type ptModel struct {
	pt  RadixPT
	ref map[uint64]phys.Frame
}

func newPTModel() *ptModel { return &ptModel{ref: map[uint64]phys.Frame{}} }

// apply runs one op on the table and the map and compares answers.
func (m *ptModel) apply(op int, vp uint64, f phys.Frame) error {
	switch op {
	case ptOpInsert:
		m.pt.Insert(vp, f)
		m.ref[vp] = f
	case ptOpDelete:
		_, want := m.ref[vp]
		if got := m.pt.Delete(vp); got != want {
			return fmt.Errorf("Delete(%#x) = %v, map says %v", vp, got, want)
		}
		delete(m.ref, vp)
	case ptOpLookup:
		got, ok := m.pt.Lookup(vp)
		want, wantOK := m.ref[vp]
		if ok != wantOK || (ok && got != want) {
			return fmt.Errorf("Lookup(%#x) = (%d, %v), map holds (%d, %v)", vp, got, ok, want, wantOK)
		}
	}
	if m.pt.Len() != len(m.ref) {
		return fmt.Errorf("Len = %d, map holds %d", m.pt.Len(), len(m.ref))
	}
	return nil
}

// check compares the whole table with the map.
func (m *ptModel) check() error {
	var err error
	n := 0
	var prev uint64
	m.pt.Visit(func(vp uint64, f phys.Frame) {
		want, ok := m.ref[vp]
		switch {
		case err != nil:
		case n > 0 && vp <= prev:
			err = fmt.Errorf("Visit yields vpage %#x after %#x, not in ascending order", vp, prev)
		case !ok || want != f:
			err = fmt.Errorf("Visit yields (%#x, %d), map holds (%d, %v)", vp, f, want, ok)
		}
		prev = vp
		n++
	})
	if err != nil {
		return err
	}
	if n != len(m.ref) {
		return fmt.Errorf("Visit yields %d mappings, map holds %d", n, len(m.ref))
	}
	chunks := map[uint64]bool{}
	for vp := range m.ref {
		chunks[vp>>ptLeafBits] = true
	}
	if m.pt.Leaves() != len(chunks) {
		return fmt.Errorf("Leaves = %d, map has mappings in %d chunks", m.pt.Leaves(), len(chunks))
	}
	return nil
}

func TestRadixPTDifferential(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			m := newPTModel()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 4000; i++ {
				// Sixteen vpages straddle each of eight leaf
				// boundaries per cluster: few enough that leaves
				// empty and are released, spread enough that the
				// root grows and shrinks its span of live leaves.
				vp := uint64(1+rng.Intn(8))*ptLeafSize - 8 + uint64(rng.Intn(16))
				if rng.Intn(2) == 1 {
					vp += ptHighCluster
				}
				op := rng.Intn(numPTOps)
				if err := m.apply(op, vp, phys.Frame(rng.Intn(1<<20))); err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
				if (i+1)%64 == 0 {
					if err := m.check(); err != nil {
						t.Fatalf("after op %d: %v", i, err)
					}
				}
			}
			if err := m.check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// FuzzRadixPT drives a bare RadixPT and its map reference with the
// same fuzzed op log.
//
// Encoding: 3 bytes per op [sel, arg, page]. sel%3 picks insert,
// delete or lookup and sel/3 is the frame an insert maps. The vpage
// is arg in leaf-sized stride page/2, plus ptHighCluster when page is
// odd.
func FuzzRadixPT(f *testing.F) {
	f.Add([]byte{0, 4, 0, 1, 0, 0, 1, 0, 1, 2, 0, 0})
	f.Add([]byte{0, 15, 0, 3, 1, 0, 1, 0, 7, 7, 2, 0, 1, 0, 7, 2, 0, 0})
	f.Add([]byte{3, 1, 0, 4, 2, 0, 0, 2, 0, 1, 0, 0, 7, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxOps = 256
		m := newPTModel()
		for i := 0; i+2 < len(data) && i/3 < maxOps; i += 3 {
			sel, arg, page := data[i], data[i+1], data[i+2]
			vp := uint64(page/2)*ptLeafSize + uint64(arg)
			if page%2 == 1 {
				vp += ptHighCluster
			}
			if err := m.apply(int(sel%numPTOps), vp, phys.Frame(sel/numPTOps)); err != nil {
				t.Fatalf("op %d: %v", i/3, err)
			}
			if (i/3+1)%16 == 0 {
				if err := m.check(); err != nil {
					t.Fatalf("after op %d: %v", i/3, err)
				}
			}
		}
		if err := m.check(); err != nil {
			t.Fatal(err)
		}
	})
}
