package workload

import (
	"github.com/tintmalloc/tintmalloc/internal/engine"
	"github.com/tintmalloc/tintmalloc/internal/phys"
)

// http driver sizing at Scale 1.
const (
	httpCorpus    = 4 << 20 // shared response corpus bytes
	httpRequests  = 12000   // requests handled per worker
	httpDepth     = 8       // corpus touches per request
	httpReadPct   = 70      // share of requests that only read
	httpReqBytes  = 1024    // request/response scratch buffer
	httpTableEnts = 512     // routing-table entries
	httpCompute   = 3
)

// HTTPSpec tunes the http driver; zero fields take the defaults
// above.
type HTTPSpec struct {
	Corpus   uint64 // shared corpus bytes (master-allocated)
	Requests uint64 // requests per worker
	Depth    int    // corpus touches per request
	ReadPct  int    // percent of requests that only read (0-100)
}

// HTTP ports the shape of golang.org/x/benchmarks' http benchmark: a
// request/response fan-out. The master thread loads a shared routing
// table and response corpus (master-touched, as real servers
// initialize before spawning workers — the anti-pattern coloring must
// cope with); each worker then serves a stream of requests:
// allocate a scratch buffer, look the route up in the shared table,
// gather Depth corpus reads, write the response into the scratch
// buffer, free it. Write requests additionally update the touched
// corpus lines. Per-request malloc/free keeps the allocator hot, and
// every request crosses thread-private scratch with shared
// master-touched data — the divergence the paper's Sec. IV
// attributes to fan-out services. The scratch buffer sits in heap
// slot 0.
func HTTP(s HTTPSpec) Workload {
	return Workload{
		Name:        "http",
		Suite:       "ported",
		Description: "request/response fan-out over a shared master-loaded corpus (x/benchmarks http shape)",
		Build: func(threads []engine.Thread, p Params) ([]engine.Phase, error) {
			return buildHTTP(threads, p, s)
		},
	}
}

func buildHTTP(threads []engine.Thread, p Params, s HTTPSpec) ([]engine.Phase, error) {
	corpus := s.Corpus
	if corpus == 0 {
		corpus = p.scaled(httpCorpus)
	}
	corpus = pageAlign(corpus)
	requests := s.Requests
	if requests == 0 {
		requests = p.scaled(httpRequests)
	}
	depth := s.Depth
	if depth == 0 {
		depth = httpDepth
	}
	readPct := s.ReadPct
	if readPct == 0 {
		readPct = httpReadPct
	}
	n := len(threads)

	var corpusVA, tableVA uint64
	tableBytes := pageAlign(httpTableEnts * phys.LineSize)

	// Setup: the master loads the routing table and corpus. Serial
	// and master-touched on purpose (see the doc comment).
	setup := func(yield func(engine.Op) bool) {
		th := threads[0]
		var err error
		if tableVA, err = mmapChunk(th, tableBytes); err != nil {
			return
		}
		if corpusVA, err = mmapChunk(th, corpus); err != nil {
			return
		}
		if !streamTouch(yield, tableVA, tableBytes, true, 1) {
			return
		}
		streamTouch(yield, corpusVA, corpus, true, 1)
	}
	phases := []engine.Phase{engine.Serial("setup", n, setup)}

	corpusLines := corpus / phys.LineSize
	serveBodies := make([]engine.Work, n)
	for i := range threads {
		serveBodies[i] = func(yield func(engine.Op) bool) {
			rng := rngFor(p, 900000+i)
			for r := uint64(0); r < requests; r++ {
				// Accept: scratch buffer for the request/response pair.
				if !yield(engine.Malloc(0, httpReqBytes)) ||
					!yield(engine.Op{Ref: engine.Slot(0), Write: true, Compute: httpCompute}) {
					return
				}
				// Route lookup in the shared table.
				ent := uint64(rng.Intn(httpTableEnts))
				if !yield(engine.Op{VA: tableVA + ent*phys.LineSize, Compute: httpCompute}) {
					return
				}
				// Gather the response from the shared corpus; write
				// requests also update the lines they touch.
				write := rng.Intn(100) >= readPct
				for d := 0; d < depth; d++ {
					l := uint64(rng.Int63n(int64(corpusLines)))
					if !yield(engine.Op{VA: corpusVA + l*phys.LineSize, Write: write, Compute: httpCompute}) {
						return
					}
					// Stage into the scratch buffer.
					off := uint64(d) * phys.LineSize % httpReqBytes
					if !yield(engine.Op{VA: off, Write: true, Ref: engine.Slot(0)}) {
						return
					}
				}
				// Respond and release.
				if !yield(engine.Free(0)) {
					return
				}
			}
		}
	}
	phases = append(phases, engine.Parallel("serve", serveBodies))
	return phases, nil
}
