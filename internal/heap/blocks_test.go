package heap

import (
	"math/rand"
	"testing"
)

// tailKey returns the j-th block-aligned VA, from 1<<36 up, whose home
// slot is one of bt's last two: a run of such keys wraps past the
// table's end, so deleting one shifts entries from slot 0 back across
// the wrap.
func tailKey(bt *blockTable, j int) uint64 {
	for va := uint64(1 << 36); ; va += 4096 {
		if bt.home(va) >= len(bt.slots)-2 {
			if j == 0 {
				return va
			}
			j--
		}
	}
}

// checkBlockTable requires bt to hold exactly the model's entries, each
// reachable from its home slot without crossing a free slot.
func checkBlockTable(t *testing.T, bt *blockTable, model map[uint64]allocation) {
	t.Helper()
	if bt.n != len(model) {
		t.Fatalf("table counts %d entries, model %d", bt.n, len(model))
	}
	mask := len(bt.slots) - 1
	used := 0
	for i, s := range bt.slots {
		if s.va == 0 {
			continue
		}
		used++
		if want, ok := model[s.va]; !ok || want != s.a {
			t.Fatalf("slot %d holds %#x -> %+v, model has %+v (present %v)", i, s.va, s.a, want, ok)
		}
		for j := bt.home(s.va); j != i; j = (j + 1) & mask {
			if bt.slots[j].va == 0 {
				t.Fatalf("%#x in slot %d is cut off from its home slot %d by free slot %d", s.va, i, bt.home(s.va), j)
			}
		}
	}
	if used != bt.n {
		t.Fatalf("%d slots in use, table counts %d", used, bt.n)
	}
	for va, want := range model {
		if got, ok := bt.get(va); !ok || got != want {
			t.Fatalf("get(%#x) = %+v, %v; model %+v", va, got, ok, want)
		}
	}
}

// blockTableRun applies one decoded op sequence to a blockTable and to
// a map, checking them against each other after every op. Each op is
// two bytes: the first picks put, delete or get; the second picks the
// key, either one of 128 slab-slot VAs or (high bit set) a key homed
// at the table's last two slots.
func blockTableRun(t *testing.T, data []byte) {
	bt := newBlockTable()
	model := map[uint64]allocation{}
	for i := 0; i+1 < len(data); i += 2 {
		op, kb := data[i], data[i+1]
		va := uint64(1<<36) + uint64(kb&0x7f)*16
		if kb&0x80 != 0 {
			va = tailKey(&bt, int(kb&0x7f)%8)
		}
		switch op % 4 {
		case 0, 1:
			a := allocation{class: int(op>>2)%9 - 1, pages: uint64(op >> 5)}
			bt.put(va, a)
			model[va] = a
		case 2:
			_, want := model[va]
			if got := bt.del(va); got != want {
				t.Fatalf("op %d: del(%#x) = %v, model %v", i/2, va, got, want)
			}
			delete(model, va)
		default:
			want, wok := model[va]
			if got, ok := bt.get(va); ok != wok || got != want {
				t.Fatalf("op %d: get(%#x) = %+v, %v; model %+v, %v", i/2, va, got, ok, want, wok)
			}
		}
		checkBlockTable(t, &bt, model)
	}
}

// FuzzHeapBlockTable holds the heap's block table to a map.
func FuzzHeapBlockTable(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		b := make([]byte, 400)
		rng.Read(b)
		f.Add(b)
	}
	f.Fuzz(blockTableRun)
}

// TestBlockTableWrapDeleteAndGrow deletes from a probe run that wraps
// past the table's end, then grows the table, checking it against a
// map at every step; the seeded runs after it mix every op.
func TestBlockTableWrapDeleteAndGrow(t *testing.T) {
	bt := newBlockTable()
	model := map[uint64]allocation{}
	var run []uint64
	for j := 0; j < 5; j++ { // five keys homed at the last two slots
		va := tailKey(&bt, j)
		run = append(run, va)
		bt.put(va, allocation{class: j})
		model[va] = allocation{class: j}
	}
	if i := bt.find(run[4]); i > 2 {
		t.Fatalf("the run did not wrap: its last key sits in slot %d", i)
	}
	for _, va := range run[:3] {
		if !bt.del(va) {
			t.Fatalf("del(%#x) missed", va)
		}
		delete(model, va)
		checkBlockTable(t, &bt, model)
	}
	slots := len(bt.slots)
	for i := uint64(0); len(bt.slots) == slots; i++ {
		va := uint64(1<<37) + i*16
		bt.put(va, allocation{class: -1, pages: i})
		model[va] = allocation{class: -1, pages: i}
	}
	checkBlockTable(t, &bt, model)

	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 50; i++ {
		b := make([]byte, 600)
		rng.Read(b)
		blockTableRun(t, b)
	}
}
