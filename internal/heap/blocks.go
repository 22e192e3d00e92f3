package heap

import "math/bits"

// blockTable maps each live block's VA to its allocation record. It is
// an open-addressed hash table with linear probing: a key lives in the
// first free slot at or after its home slot, so every slot between the
// home and the key is occupied. Delete keeps that true without
// tombstones by shifting later entries of the run back into the hole.
// Mmap never hands out VA 0, so a zero key marks a free slot.
type blockTable struct {
	slots []blockSlot // power-of-two length
	shift uint        // 64 - log2(len(slots)): home slots are the hash's top bits
	n     int         // live entries
}

type blockSlot struct {
	va uint64
	a  allocation
}

// minBlockSlots is the table's starting size. It doubles once more
// than three quarters of its slots are in use.
const minBlockSlots = 16

func newBlockTable() blockTable {
	return blockTable{slots: make([]blockSlot, minBlockSlots), shift: 64 - uint(bits.TrailingZeros(minBlockSlots))}
}

// home is va's home slot: a Fibonacci hash's top bits.
func (bt *blockTable) home(va uint64) int {
	return int((va * 0x9E3779B97F4A7C15) >> bt.shift)
}

// find returns the slot holding va, or -1.
func (bt *blockTable) find(va uint64) int {
	mask := len(bt.slots) - 1
	for i := bt.home(va); ; i = (i + 1) & mask {
		switch bt.slots[i].va {
		case 0:
			return -1
		case va:
			return i
		}
	}
}

func (bt *blockTable) get(va uint64) (allocation, bool) {
	if i := bt.find(va); i >= 0 {
		return bt.slots[i].a, true
	}
	return allocation{}, false
}

// put records a under va, replacing any record va already has. va
// must not be 0.
func (bt *blockTable) put(va uint64, a allocation) {
	if 4*(bt.n+1) > 3*len(bt.slots) {
		bt.grow()
	}
	mask := len(bt.slots) - 1
	i := bt.home(va)
	for bt.slots[i].va != 0 && bt.slots[i].va != va {
		i = (i + 1) & mask
	}
	if bt.slots[i].va == 0 {
		bt.n++
	}
	bt.slots[i] = blockSlot{va, a}
}

// del removes va and reports whether it was present. Each later entry
// of the probe run moves into the hole unless its home slot lies
// cyclically after the hole, where a lookup would no longer pass it.
func (bt *blockTable) del(va uint64) bool {
	hole := bt.find(va)
	if hole < 0 {
		return false
	}
	mask := len(bt.slots) - 1
	for j := (hole + 1) & mask; bt.slots[j].va != 0; j = (j + 1) & mask {
		if (j-bt.home(bt.slots[j].va))&mask >= (j-hole)&mask {
			bt.slots[hole] = bt.slots[j]
			hole = j
		}
	}
	bt.slots[hole] = blockSlot{}
	bt.n--
	return true
}

func (bt *blockTable) grow() {
	old := bt.slots
	bt.slots = make([]blockSlot, 2*len(old))
	bt.shift--
	bt.n = 0
	for _, s := range old {
		if s.va != 0 {
			bt.put(s.va, s.a)
		}
	}
}
