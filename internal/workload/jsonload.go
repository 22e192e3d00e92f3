package workload

import (
	"github.com/tintmalloc/tintmalloc/internal/engine"
	"github.com/tintmalloc/tintmalloc/internal/phys"
)

// json driver sizing at Scale 1.
const (
	jsonInputBytes = 2 << 20 // per-thread input document bytes
	jsonDocs       = 48      // documents parsed+serialized per thread
	jsonDepth      = 6       // parse-tree depth
	jsonNodeSize   = 128     // bytes per tree node
	jsonFanout     = 3       // children per interior node
	jsonCompute    = 2
)

// JSONSpec tunes the json driver; zero fields take the defaults
// above.
type JSONSpec struct {
	Input uint64 // input bytes per thread
	Docs  uint64 // documents per thread
	Depth int    // parse-tree depth
}

// JSON ports the shape of golang.org/x/benchmarks' json benchmark:
// decode a large document into a node tree, then re-encode it. Per
// document each thread (1) streams a slice of its private input
// buffer, (2) builds a depth-bounded tree of small heap nodes in
// allocation order (the decode), and (3) walks the tree depth-first
// while streaming the output buffer (the encode). The tree nodes are
// the LLC-sensitive part — the walk revisits them immediately after
// the build — while the input/output streams are pure bandwidth, a
// mix that rewards MEM+LLC coloring on both axes. Node k of a
// document sits in heap slot k.
func JSON(s JSONSpec) Workload {
	return Workload{
		Name:        "json",
		Suite:       "ported",
		Description: "decode into a node tree and re-encode: stream, build, walk (x/benchmarks json shape)",
		Build: func(threads []engine.Thread, p Params) ([]engine.Phase, error) {
			return buildJSON(threads, p, s)
		},
	}
}

func buildJSON(threads []engine.Thread, p Params, s JSONSpec) ([]engine.Phase, error) {
	input := s.Input
	if input == 0 {
		input = p.scaled(jsonInputBytes)
	}
	input = pageAlign(input)
	docs := s.Docs
	if docs == 0 {
		docs = p.scaled(jsonDocs)
	}
	depth := s.Depth
	if depth == 0 {
		depth = jsonDepth
	}
	// Nodes per document: a full jsonFanout-ary tree of the given
	// depth.
	nodesPerDoc := 0
	for d, width := 0, 1; d < depth; d++ {
		nodesPerDoc += width
		width *= jsonFanout
	}
	n := len(threads)

	inVA := make([]uint64, n)
	outVA := make([]uint64, n)

	initBodies := make([]engine.Work, n)
	for i := range threads {
		th, i := threads[i], i
		initBodies[i] = func(yield func(engine.Op) bool) {
			var err error
			if inVA[i], err = mmapChunk(th, input); err != nil {
				return
			}
			if outVA[i], err = mmapChunk(th, input); err != nil {
				return
			}
			// First-touch the input (the download); output pages
			// fault on demand during encode.
			streamTouch(yield, inVA[i], input, true, 1)
		}
	}
	phases := []engine.Phase{engine.Parallel("load", initBodies)}

	sliceBytes := input / docs
	if sliceBytes < phys.LineSize {
		sliceBytes = phys.LineSize
	}
	workBodies := make([]engine.Work, n)
	for i := range threads {
		workBodies[i] = func(yield func(engine.Op) bool) {
			rng := rngFor(p, 600000+i)
			for doc := uint64(0); doc < docs; doc++ {
				// Decode: stream the document slice while building
				// the node tree in allocation order.
				base := inVA[i] + (doc*sliceBytes)%input
				off := uint64(0)
				for k := 0; k < nodesPerDoc; k++ {
					if !yield(engine.Op{VA: inVA[i] + (base-inVA[i]+off)%input, Compute: jsonCompute}) {
						return
					}
					off += phys.LineSize
					if !yield(engine.Malloc(k, jsonNodeSize)) ||
						!yield(engine.Op{Ref: engine.Slot(k), Write: true, Compute: jsonCompute}) {
						return
					}
				}
				// Encode: walk the tree depth-first (parent before a
				// random child chain) and stream the output buffer.
				outOff := (doc * sliceBytes) % input
				for k := 0; k < nodesPerDoc; k++ {
					if !yield(engine.Op{Ref: engine.Slot(k), Compute: jsonCompute}) {
						return
					}
					// Revisit a random ancestor: pointer-chasing share.
					if k > 0 {
						if !yield(engine.Op{Ref: engine.Slot(rng.Intn(k)), Compute: jsonCompute}) {
							return
						}
					}
					if !yield(engine.Op{VA: outVA[i] + (outOff+uint64(k)*phys.LineSize)%input, Write: true}) {
						return
					}
				}
				// Release the document tree before the next one: the
				// decode/encode cycle of the original is
				// allocate-heavy but steady-state.
				for k := 0; k < nodesPerDoc; k++ {
					if !yield(engine.Free(k)) {
						return
					}
				}
			}
		}
	}
	phases = append(phases, engine.Parallel("decode-encode", workBodies))
	return phases, nil
}
