package kernel

import (
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"github.com/tintmalloc/tintmalloc/internal/phys"
)

// colorPopRun drives colorTable.popColored and the linear-scan
// reference (colorref_test.go) through one decoded op sequence.
//
// The first five bytes pick the shape: nLLC of 1, 32 or 128 (two
// occupancy words per row), 1, 3 or 8 bank colors per node, 1-4
// nodes, the coloring mode (MEM+LLC, bank-only, LLC-only) and the
// task's local node. Then each op byte selects a push (of a fresh
// frame, onto one of the task's colors or any list), a pop (local
// only or not) or a recolor, which resets the cursors as Repolicy
// does. After every pop both sides must return the same frame and
// hold the same cursors; at the end every list and occupancy bit must
// agree.
func colorPopRun(t *testing.T, data []byte) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	nLLC := [...]int{1, 32, 128}[next()%3]
	per := [...]int{1, 3, 8}[next()%3]
	nodes := 1 + next()%4
	nBank := nodes * per
	mode := next() % 3
	local := next() % nodes
	order := make([]int, nodes)
	for i := range order {
		order[i] = (local + i) % nodes
	}

	ct := newColorTable(nBank, nLLC, per)
	k := &Kernel{colors: ct, bankClaims: make([]atomic.Int32, nBank), llcClaims: make([]atomic.Int32, nLLC)}
	task := &Task{proc: &Process{k: k}, bankSet: make([]bool, nBank), llcMask: make([]uint64, ct.words), nodeOrder: order}
	ref := newRefColorTable(nBank, nLLC, per)
	rt := &refTask{nodeOrder: order}

	recolor := func() {
		for len(task.bankColors) > 0 {
			task.setBank(task.bankColors[len(task.bankColors)-1], false)
		}
		for len(task.llcColors) > 0 {
			task.setLLC(task.llcColors[len(task.llcColors)-1], false)
		}
		if mode != 2 {
			for n := 1 + next()%4; n > 0; n-- {
				task.setBank(next()%nBank, true)
			}
		}
		if mode != 1 {
			for n := 1 + next()%4; n > 0; n-- {
				task.setLLC(next()%nLLC, true)
			}
		}
		task.usingBank, task.usingLLC = len(task.bankColors) > 0, len(task.llcColors) > 0
		task.comboCursor, task.comboLLC, task.llcScan, task.bankScan = 0, 0, 0, 0
		*rt = refTask{
			usingBank: task.usingBank, usingLLC: task.usingLLC,
			bankColors: slices.Clone(task.bankColors), llcColors: slices.Clone(task.llcColors),
			nodeOrder: order,
		}
	}
	recolor()

	var frame phys.Frame
	for op := 0; len(data) > 0; op++ {
		b := next()
		switch {
		case b%8 < 4: // push
			bc, lc := next()%nBank, next()%nLLC
			if b&8 != 0 && len(rt.bankColors) > 0 {
				bc = rt.bankColors[bc%len(rt.bankColors)]
			}
			if b&16 != 0 && len(rt.llcColors) > 0 {
				lc = rt.llcColors[lc%len(rt.llcColors)]
			}
			frame++
			ct.push(frame, bc, lc)
			ref.push(frame, bc, lc)
		case b%8 < 7: // pop
			localOnly := b&8 != 0
			f, ok := ct.popColored(task, localOnly)
			rf, rok := ref.popColored(rt, localOnly)
			if f != rf || ok != rok {
				t.Fatalf("op %d: pop(localOnly %v) = (%d, %v), reference (%d, %v)", op, localOnly, f, ok, rf, rok)
			}
			if got := comboIndex(task); got != rt.comboCursor || task.llcScan != rt.llcScan || task.bankScan != rt.bankScan {
				t.Fatalf("op %d: cursors (combo %d, llcScan %d, bankScan %d), reference (%d, %d, %d)",
					op, got, task.llcScan, task.bankScan, rt.comboCursor, rt.llcScan, rt.bankScan)
			}
		default:
			recolor()
		}
	}

	for bc := 0; bc < nBank; bc++ {
		for lc := 0; lc < nLLC; lc++ {
			l := ct.list(bc, lc)
			if !slices.Equal(l, ref.lists[bc*nLLC+lc]) {
				t.Fatalf("list (%d, %d) = %v, reference %v", bc, lc, l, ref.lists[bc*nLLC+lc])
			}
			if ct.Occupied(bc, lc) != (len(l) > 0) {
				t.Fatalf("list (%d, %d) holds %d frames, occupancy bit %v", bc, lc, len(l), ct.Occupied(bc, lc))
			}
		}
	}
}

// comboIndex is the task's cursor as the reference keeps it: the
// combination index under MEM+LLC, where the next combination is the
// first owned LLC color at or above comboLLC in bank comboCursor, and
// the plain index otherwise.
func comboIndex(t *Task) int {
	if !t.usingBank || !t.usingLLC {
		return t.comboCursor
	}
	rank, _ := slices.BinarySearch(t.llcColors, t.comboLLC)
	return t.comboCursor*len(t.llcColors) + rank
}

// FuzzColorPop holds the occupancy-indexed pops to the linear
// combination scan they replace (DESIGN.md Sec. 14.2).
func FuzzColorPop(f *testing.F) {
	for _, seed := range colorPopSeeds(12, 300) {
		f.Add(seed)
	}
	f.Fuzz(colorPopRun)
}

// TestColorPopMatchesReference runs the FuzzColorPop check over
// seeded random op sequences covering every shape and mode.
func TestColorPopMatchesReference(t *testing.T) {
	for _, data := range colorPopSeeds(200, 600) {
		colorPopRun(t, data)
	}
}

// colorPopSeeds returns n random inputs of the given length. The
// first five bytes of input i cycle through the nLLC, bank-per-node
// and mode choices so that every shape is covered.
func colorPopSeeds(n, length int) [][]byte {
	rng := rand.New(rand.NewSource(1))
	out := make([][]byte, n)
	for i := range out {
		b := make([]byte, length)
		rng.Read(b)
		b[0], b[1], b[3] = byte(i%3), byte(i/3%3), byte(i/9%3)
		out[i] = b
	}
	return out
}
