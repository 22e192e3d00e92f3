package topology

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestOpteron6128Shape(t *testing.T) {
	top := Opteron6128()
	if got, want := top.Sockets(), 2; got != want {
		t.Errorf("Sockets() = %d, want %d", got, want)
	}
	if got, want := top.Nodes(), 4; got != want {
		t.Errorf("Nodes() = %d, want %d", got, want)
	}
	if got, want := top.Cores(), 16; got != want {
		t.Errorf("Cores() = %d, want %d", got, want)
	}
	if got, want := top.CoresPerNode(), 4; got != want {
		t.Errorf("CoresPerNode() = %d, want %d", got, want)
	}
}

func TestOpteron6128HopDistances(t *testing.T) {
	top := Opteron6128()
	// Core 0 is on node 0, socket 0.
	cases := []struct {
		core CoreID
		node NodeID
		want int
	}{
		{0, 0, 1},  // local
		{0, 1, 2},  // same socket, other node
		{0, 2, 3},  // remote socket
		{0, 3, 3},  // remote socket
		{4, 1, 1},  // core 4 local to node 1
		{4, 0, 2},  // core 4 to node 0: same socket
		{8, 2, 1},  // core 8 local to node 2
		{8, 0, 3},  // cross socket
		{15, 3, 1}, // last core local to last node
		{15, 0, 3},
	}
	for _, c := range cases {
		if got := top.Hops(c.core, c.node); got != c.want {
			t.Errorf("Hops(core %d, node %d) = %d, want %d", c.core, c.node, got, c.want)
		}
	}
}

func TestCoreNodeAssignment(t *testing.T) {
	top := Opteron6128()
	for c := CoreID(0); int(c) < top.Cores(); c++ {
		want := NodeID(int(c) / 4)
		if got := top.NodeOfCore(c); got != want {
			t.Errorf("NodeOfCore(%d) = %d, want %d", c, got, want)
		}
	}
}

func TestCoresOfNodeRoundTrip(t *testing.T) {
	top := Opteron6128()
	seen := make(map[CoreID]bool)
	for n := NodeID(0); int(n) < top.Nodes(); n++ {
		for _, c := range top.CoresOfNode(n) {
			if seen[c] {
				t.Fatalf("core %d listed under two nodes", c)
			}
			seen[c] = true
			if top.NodeOfCore(c) != n {
				t.Errorf("CoresOfNode(%d) includes core %d whose NodeOfCore is %d",
					n, c, top.NodeOfCore(c))
			}
		}
	}
	if len(seen) != top.Cores() {
		t.Errorf("CoresOfNode covered %d cores, want %d", len(seen), top.Cores())
	}
}

func TestSocketOfNode(t *testing.T) {
	top := Opteron6128()
	wants := []SocketID{0, 0, 1, 1}
	for n, want := range wants {
		if got := top.SocketOfNode(NodeID(n)); got != want {
			t.Errorf("SocketOfNode(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},
		{Sockets: 0, NodesPerSocket: 2, CoresPerNode: 4, IntraNodeHops: 1, IntraSocketHops: 2, InterSocketHops: 3},
		{Sockets: 2, NodesPerSocket: 0, CoresPerNode: 4, IntraNodeHops: 1, IntraSocketHops: 2, InterSocketHops: 3},
		{Sockets: 2, NodesPerSocket: 2, CoresPerNode: 0, IntraNodeHops: 1, IntraSocketHops: 2, InterSocketHops: 3},
		{Sockets: 2, NodesPerSocket: 2, CoresPerNode: 4, IntraNodeHops: 0, IntraSocketHops: 2, InterSocketHops: 3},
		{Sockets: 2, NodesPerSocket: 2, CoresPerNode: 4, IntraNodeHops: 2, IntraSocketHops: 1, InterSocketHops: 3},
		{Sockets: 2, NodesPerSocket: 2, CoresPerNode: 4, IntraNodeHops: 1, IntraSocketHops: 3, InterSocketHops: 2},
	}
	for i, c := range bad {
		if _, err := New(c); err == nil {
			t.Errorf("New(bad config %d) succeeded, want error", i)
		}
	}
	good := Config{Sockets: 1, NodesPerSocket: 1, CoresPerNode: 1,
		IntraNodeHops: 1, IntraSocketHops: 1, InterSocketHops: 1}
	if _, err := New(good); err != nil {
		t.Errorf("New(minimal config) failed: %v", err)
	}
}

func TestHopSymmetryAndMonotonicity(t *testing.T) {
	cfg := Config{Sockets: 3, NodesPerSocket: 2, CoresPerNode: 2,
		IntraNodeHops: 1, IntraSocketHops: 2, InterSocketHops: 5}
	top, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for a := NodeID(0); int(a) < top.Nodes(); a++ {
		for b := NodeID(0); int(b) < top.Nodes(); b++ {
			if top.NodeHops(a, b) != top.NodeHops(b, a) {
				t.Errorf("hop asymmetry between nodes %d and %d", a, b)
			}
			if a == b && top.NodeHops(a, b) != 1 {
				t.Errorf("self hops of node %d = %d, want 1", a, top.NodeHops(a, b))
			}
			if a != b && top.NodeHops(a, b) < cfg.IntraSocketHops {
				t.Errorf("cross-node hops %d->%d = %d below intra-socket %d",
					a, b, top.NodeHops(a, b), cfg.IntraSocketHops)
			}
		}
	}
}

func TestValidCoreValidNode(t *testing.T) {
	top := Opteron6128()
	if top.ValidCore(-1) || top.ValidCore(16) {
		t.Error("ValidCore accepted out-of-range core")
	}
	if !top.ValidCore(0) || !top.ValidCore(15) {
		t.Error("ValidCore rejected in-range core")
	}
	if top.ValidNode(-1) || top.ValidNode(4) {
		t.Error("ValidNode accepted out-of-range node")
	}
	if !top.ValidNode(0) || !top.ValidNode(3) {
		t.Error("ValidNode rejected in-range node")
	}
}

// Property: for any valid small config, every core's local node is the
// unique minimum-hop node.
func TestLocalNodeIsMinHop(t *testing.T) {
	f := func(sock, nps, cpn uint8) bool {
		cfg := Config{
			Sockets:        int(sock%3) + 1,
			NodesPerSocket: int(nps%3) + 1,
			CoresPerNode:   int(cpn%4) + 1,
			IntraNodeHops:  1, IntraSocketHops: 2, InterSocketHops: 3,
		}
		top, err := New(cfg)
		if err != nil {
			return false
		}
		for c := CoreID(0); int(c) < top.Cores(); c++ {
			local := top.NodeOfCore(c)
			for n := NodeID(0); int(n) < top.Nodes(); n++ {
				if n == local {
					if top.Hops(c, n) != 1 {
						return false
					}
				} else if top.Hops(c, n) <= 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStringer(t *testing.T) {
	got := Opteron6128().String()
	want := "topology{2 sockets, 4 nodes, 16 cores}"
	if got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// TestNodeOrder pins the zone fallback order: nodes by hop distance
// from the core, ties by node id.
func TestNodeOrder(t *testing.T) {
	custom, err := New(Config{
		Sockets: 3, NodesPerSocket: 2, CoresPerNode: 2,
		IntraNodeHops: 1, IntraSocketHops: 2, InterSocketHops: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		top  *Topology
		core CoreID
		want []int
	}{
		{Opteron6128(), 0, []int{0, 1, 2, 3}},
		{Opteron6128(), 4, []int{1, 0, 2, 3}},
		{Opteron6128(), 8, []int{2, 3, 0, 1}},
		{Opteron6128(), 15, []int{3, 2, 0, 1}},
		{custom, 0, []int{0, 1, 2, 3, 4, 5}},
		{custom, 7, []int{3, 2, 0, 1, 4, 5}},
		{custom, 9, []int{4, 5, 0, 1, 2, 3}},
	}
	for _, c := range cases {
		got := c.top.NodeOrder(c.core)
		if !slices.Equal(got, c.want) {
			t.Errorf("%v NodeOrder(core %d) = %v, want %v", c.top, c.core, got, c.want)
		}
	}
}
