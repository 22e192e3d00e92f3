package invariant

import (
	"fmt"

	"github.com/tintmalloc/tintmalloc/internal/kernel"
	"github.com/tintmalloc/tintmalloc/internal/phys"
	"github.com/tintmalloc/tintmalloc/internal/serve"
)

// ownerClient extends the owner set for the serving layer, where
// handed-out frames are tracked per client instead of per page table.
const ownerClient = ownerPageTable + 1

func ownerLabel(o uint8) string {
	if o == ownerClient {
		return "client"
	}
	return ownerName[o]
}

// AuditServer cross-checks the sharded front-end's bookkeeping the
// way Audit checks the sequential kernel's, with frame ownership
// spread over shards and clients instead of zones and page tables.
// The server must be quiescent (no in-flight Alloc/Free) for the walk
// to be coherent.
//
// Checks 1-3 mirror Audit: color-hash correctness of every parked
// frame against the bit-gather reference, single ownership of every
// frame among {shard buddy zone, shard color list, client}, and
// colored-mark consistency. Check 5's loan rules apply per client.
// Check 7 has no ledger to reconcile here: a serve loan is the rung
// mark on its frame plus the frame's owner, so every mark must sit on
// a frame a live client holds and name a ladder rung, and the loan
// gauge (Stats.Loans) must equal the number of marks. Check 6 is the
// cross-shard invariant the sequential kernel never needed:
//
//  6. The shards partition the machine. Every bank color is owned by
//     exactly one shard — the shard of its node — and the shards
//     together cover all bank colors; every frame parked or free on a
//     shard lies in that shard's node range; every color bucket's
//     occupancy bit is set exactly when the bucket holds frames (a
//     clear bit over a non-empty bucket would strand its frames, as
//     every probe skips the bucket); and every outstanding frame
//     either matches its owner's color claim or carries a loan
//     recording which ladder rung degraded it. A same-node color
//     borrow never holds a color inside another client's claim — the
//     plan-disjointness rule, enforced across shards — and the claim
//     counts the ladder consults count exactly the live clients'
//     claims. Retired clients (serve.Client.Close) are not live: they
//     claim nothing, and a frame one still holds is a violation.
func AuditServer(s *serve.Server) *Report {
	m := s.Mapping()
	r := &Report{Frames: m.Frames()}
	owner := make([]uint8, m.Frames())

	claim := func(f phys.Frame, who uint8, what string) {
		if uint64(f) >= r.Frames {
			r.addf("%s holds out-of-range frame %d", what, f)
			return
		}
		if owner[f] != ownerNone {
			r.addf("frame %d owned by both %s and %s", f, ownerLabel(owner[f]), what)
			return
		}
		owner[f] = who
	}

	// Check 6: shard bank-color ownership partitions the color space.
	bankOwner := make(map[int]int)
	for i := 0; i < s.NumShards(); i++ {
		node := s.ShardNode(i)
		for _, bc := range s.ShardBankColors(i) {
			if prev, dup := bankOwner[bc]; dup {
				r.addf("bank color %d owned by both shard %d and shard %d", bc, prev, i)
				continue
			}
			bankOwner[bc] = i
			if m.NodeOfBankColor(bc) != node {
				r.addf("shard %d (node %d) owns bank color %d, which maps to node %d",
					i, node, bc, m.NodeOfBankColor(bc))
			}
		}
	}
	if len(bankOwner) != m.NumBankColors() {
		r.addf("shards own %d of %d bank colors; the shard map must cover the machine",
			len(bankOwner), m.NumBankColors())
	}

	// Owner labels appear only in violation messages, so each is
	// formatted once per shard, bucket or client, never per frame.
	framesPerNode := m.Frames() / uint64(m.Nodes())
	for i := 0; i < s.NumShards(); i++ {
		node := s.ShardNode(i)
		lo := phys.Frame(uint64(node) * framesPerNode)
		hi := lo + phys.Frame(framesPerNode)
		zoneLabel := fmt.Sprintf("shard %d buddy zone", i)
		s.VisitShardFree(i, func(head phys.Frame, order int) {
			for f := head; f < head+phys.Frame(uint64(1)<<order); f++ {
				claim(f, ownerBuddy, zoneLabel)
				r.BuddyFree++
				if f < lo || f >= hi {
					r.addf("shard %d (node %d) zone holds frame %d outside node range [%d,%d)",
						i, node, f, lo, hi)
				}
				if s.ColoredFrame(f) {
					r.addf("colored frame %d returned to shard %d's buddy zone; colored frames must repark", f, i)
				}
			}
		})
		s.VisitShardBuckets(i, func(bc, lc int, frames []phys.Frame, occupied bool) {
			if len(frames) == 0 {
				if occupied {
					r.addf("shard %d color list [%d][%d] is empty but its occupancy bit is set", i, bc, lc)
				}
				return
			}
			if !occupied {
				r.addf("shard %d color list [%d][%d] holds %d frames but its occupancy bit is clear; every probe skips them",
					i, bc, lc, len(frames))
			}
			listLabel := fmt.Sprintf("shard %d color list [%d][%d]", i, bc, lc)
			for _, f := range frames {
				claim(f, ownerColorList, listLabel)
				r.Parked++
				if !m.ValidFrame(f) {
					continue
				}
				if m.NodeOfFrame(f) != node {
					r.addf("frame %d of node %d parked on shard %d, which serves node %d",
						f, m.NodeOfFrame(f), i, node)
				}
				// Recompute from the bit-gather reference, as Audit does.
				if wantBC, wantLC := m.GatherBankColor(f.Base()), m.GatherLLCColor(f.Base()); wantBC != bc || wantLC != lc {
					r.addf("frame %d parked on shard %d color list [%d][%d] but hashes to (%d,%d) under the mapping",
						f, i, bc, lc, wantBC, wantLC)
				}
				if !s.ColoredFrame(f) {
					r.addf("frame %d parked on shard %d color list [%d][%d] without the colored ownership mark", f, i, bc, lc)
				}
			}
		})
	}

	live := s.Clients() // in ID order, for deterministic violation order
	clients := make(map[int]*serve.Client, len(live))
	for _, c := range live {
		clients[c.ID()] = c
	}
	clientLabel := make(map[int]string)
	holder := make(map[phys.Frame]int)
	var held []phys.Frame // ascending, for deterministic violation order
	s.VisitOutstanding(func(f phys.Frame, clientID int) {
		label, ok := clientLabel[clientID]
		if !ok {
			label = fmt.Sprintf("client %d", clientID)
			clientLabel[clientID] = label
		}
		claim(f, ownerClient, label)
		r.Mapped++
		if clients[clientID] == nil {
			r.addf("frame %d owned by unknown client %d", f, clientID)
			return
		}
		holder[f] = clientID
		held = append(held, f)
	})

	s.VisitLoans(func(f phys.Frame, clientID int, rung kernel.Rung) {
		r.Loans++
		// Check 7, serve side: a loan is a rung mark on an outstanding
		// frame, and the mark must name a ladder rung.
		if rung < 0 || rung >= kernel.NumRungs {
			r.addf("loan of frame %d carries invalid rung %d", f, rung)
		}
		if _, ok := holder[f]; !ok {
			r.addf("loan of frame %d (rung %s) is dangling: no client holds the frame", f, rung)
			return
		}
		c := clients[clientID]
		if rung != kernel.RungBorrowColor || c == nil {
			return
		}
		// Same rule as Audit check 5: a color borrow must not sit
		// inside another client's private claim. Uncolored borrowers
		// make no color claim and are skipped.
		if !c.UsingBank() && !c.UsingLLC() {
			return
		}
		bc, lc := m.FrameBankColor(f), m.FrameLLCColor(f)
		for _, o := range live {
			if o.ID() == clientID {
				continue
			}
			if c.UsingBank() && o.OwnsBankColor(bc) {
				r.addf("frame %d borrowed by client %d carries bank color %d, which is assigned to client %d",
					f, clientID, bc, o.ID())
			}
			if !c.UsingBank() && c.UsingLLC() && o.OwnsLLCColor(lc) {
				r.addf("frame %d borrowed by client %d carries LLC color %d, which is assigned to client %d",
					f, clientID, lc, o.ID())
			}
		}
	})

	// Check 6, ownership half: every outstanding frame either matches
	// its holder's claim or carries a loan naming the rung that
	// degraded it. This is what makes concurrent placement auditable
	// even though the interleaving is not reproducible.
	for _, f := range held {
		clientID := holder[f]
		if s.LoanRung(f) != kernel.RungNone {
			continue
		}
		c := clients[clientID]
		colored := s.ColoredFrame(f)
		claimed := c.UsingBank() || c.UsingLLC()
		switch {
		case colored && claimed:
			bc, lc := m.FrameBankColor(f), m.FrameLLCColor(f)
			if c.UsingBank() && !c.OwnsBankColor(bc) {
				r.addf("frame %d (bank color %d) held by client %d outside its bank claim with no loan recorded",
					f, bc, clientID)
			}
			if c.UsingLLC() && !c.OwnsLLCColor(lc) {
				r.addf("frame %d (LLC color %d) held by client %d outside its LLC claim with no loan recorded",
					f, lc, clientID)
			}
		case colored && !claimed:
			r.addf("colored frame %d held by uncolored client %d with no loan recorded", f, clientID)
		case !colored && claimed:
			r.addf("zone frame %d held by colored client %d with no loan recorded", f, clientID)
		}
	}

	// Check 6, claim half: the counts the ladder's unassigned rung
	// consults must count exactly the live clients' claims — a leaked
	// count hides a free color, a missing one lends a claimed color.
	wantBank := make([]int, m.NumBankColors())
	wantLLC := make([]int, m.NumLLCColors())
	for _, c := range live {
		for _, bc := range c.BankColors() {
			wantBank[bc]++
		}
		for _, lc := range c.LLCColors() {
			wantLLC[lc]++
		}
	}
	bank, llc := s.ClaimCounts()
	for bc, n := range bank {
		if n != wantBank[bc] {
			r.addf("bank color %d has claim count %d but %d live clients claim it", bc, n, wantBank[bc])
		}
	}
	for lc, n := range llc {
		if n != wantLLC[lc] {
			r.addf("LLC color %d has claim count %d but %d live clients claim it", lc, n, wantLLC[lc])
		}
	}

	// Check 7, gauge half: Stats.Loans must count exactly the marks.
	if n := s.Stats().Loans; n != int(r.Loans) {
		r.addf("loan gauge reads %d but %d frames carry a rung mark", n, r.Loans)
	}

	for _, o := range owner {
		if o == ownerNone {
			r.Unaccounted++
		}
	}
	return r
}
