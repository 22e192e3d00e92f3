// Package topology models the processor/memory topology of a NUMA
// machine: sockets, memory nodes (one memory controller each), cores,
// and the interconnect hop distances between them.
//
// The default preset mirrors the dual-socket AMD Opteron 6128 platform
// used in the TintMalloc paper: 2 sockets, 2 memory nodes per socket,
// 4 cores per node (16 cores total), HyperTransport-style links where
// cores within a node are 1 hop from their local controller, 2 hops
// from the other controller on the same socket, and 3 hops from
// controllers on the remote socket.
package topology

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
)

// NodeID identifies a memory node (equivalently: a memory controller).
type NodeID int

// CoreID identifies a hardware core.
type CoreID int

// SocketID identifies a physical processor package.
type SocketID int

// Topology describes an immutable machine layout. Construct with New
// or a preset; the zero value is not usable.
type Topology struct {
	sockets       int
	nodesPerSock  int
	coresPerNode  int
	hop           [][]int // [node][node] controller-to-controller hops
	coreNode      []NodeID
	coreSocket    []SocketID
	nodeSocket    []SocketID
	nodeFirstCore []CoreID
}

// Config parameterizes New.
type Config struct {
	Sockets        int // number of processor packages
	NodesPerSocket int // memory nodes (controllers) per socket
	CoresPerNode   int // cores attached to each node
	// IntraNodeHops is the distance from a core to its local
	// controller. IntraSocketHops is the distance to another
	// controller on the same socket; InterSocketHops crosses the
	// package boundary. All must be >= 1 and non-decreasing.
	IntraNodeHops   int
	IntraSocketHops int
	InterSocketHops int
}

// Validate reports whether the configuration is internally consistent.
func (c Config) Validate() error {
	switch {
	case c.Sockets < 1:
		return fmt.Errorf("topology: Sockets must be >= 1, got %d", c.Sockets)
	case c.NodesPerSocket < 1:
		return fmt.Errorf("topology: NodesPerSocket must be >= 1, got %d", c.NodesPerSocket)
	case c.CoresPerNode < 1:
		return fmt.Errorf("topology: CoresPerNode must be >= 1, got %d", c.CoresPerNode)
	case c.IntraNodeHops < 1:
		return fmt.Errorf("topology: IntraNodeHops must be >= 1, got %d", c.IntraNodeHops)
	case c.IntraSocketHops < c.IntraNodeHops:
		return fmt.Errorf("topology: IntraSocketHops (%d) must be >= IntraNodeHops (%d)",
			c.IntraSocketHops, c.IntraNodeHops)
	case c.InterSocketHops < c.IntraSocketHops:
		return fmt.Errorf("topology: InterSocketHops (%d) must be >= IntraSocketHops (%d)",
			c.InterSocketHops, c.IntraSocketHops)
	}
	return nil
}

// ErrInvalidConfig wraps configuration validation failures from New.
var ErrInvalidConfig = errors.New("topology: invalid config")

// New builds a Topology from a validated Config.
func New(c Config) (*Topology, error) {
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidConfig, err)
	}
	nNodes := c.Sockets * c.NodesPerSocket
	nCores := nNodes * c.CoresPerNode
	t := &Topology{
		sockets:       c.Sockets,
		nodesPerSock:  c.NodesPerSocket,
		coresPerNode:  c.CoresPerNode,
		hop:           make([][]int, nNodes),
		coreNode:      make([]NodeID, nCores),
		coreSocket:    make([]SocketID, nCores),
		nodeSocket:    make([]SocketID, nNodes),
		nodeFirstCore: make([]CoreID, nNodes),
	}
	for n := 0; n < nNodes; n++ {
		t.nodeSocket[n] = SocketID(n / c.NodesPerSocket)
		t.nodeFirstCore[n] = CoreID(n * c.CoresPerNode)
		t.hop[n] = make([]int, nNodes)
	}
	for a := 0; a < nNodes; a++ {
		for b := 0; b < nNodes; b++ {
			switch {
			case a == b:
				t.hop[a][b] = c.IntraNodeHops
			case t.nodeSocket[a] == t.nodeSocket[b]:
				t.hop[a][b] = c.IntraSocketHops
			default:
				t.hop[a][b] = c.InterSocketHops
			}
		}
	}
	for cID := 0; cID < nCores; cID++ {
		t.coreNode[cID] = NodeID(cID / c.CoresPerNode)
		t.coreSocket[cID] = t.nodeSocket[t.coreNode[cID]]
	}
	return t, nil
}

// Opteron6128 returns the paper's experimental platform: 2 sockets,
// 2 memory nodes per socket (4 controllers), 4 cores per node
// (16 cores), with 1/2/3 hop distances.
func Opteron6128() *Topology {
	t, err := New(Config{
		Sockets:         2,
		NodesPerSocket:  2,
		CoresPerNode:    4,
		IntraNodeHops:   1,
		IntraSocketHops: 2,
		InterSocketHops: 3,
	})
	if err != nil {
		panic("topology: Opteron6128 preset invalid: " + err.Error())
	}
	return t
}

// Sockets returns the number of processor packages.
func (t *Topology) Sockets() int { return t.sockets }

// Nodes returns the total number of memory nodes (controllers).
func (t *Topology) Nodes() int { return t.sockets * t.nodesPerSock }

// Cores returns the total number of cores.
func (t *Topology) Cores() int { return len(t.coreNode) }

// CoresPerNode returns the number of cores attached to each node.
func (t *Topology) CoresPerNode() int { return t.coresPerNode }

// NodeOfCore returns the memory node local to core c.
func (t *Topology) NodeOfCore(c CoreID) NodeID {
	return t.coreNode[c]
}

// SocketOfCore returns the package holding core c.
func (t *Topology) SocketOfCore(c CoreID) SocketID {
	return t.coreSocket[c]
}

// SocketOfNode returns the package holding node n.
func (t *Topology) SocketOfNode(n NodeID) SocketID {
	return t.nodeSocket[n]
}

// CoresOfNode returns the cores local to node n, in ascending order.
func (t *Topology) CoresOfNode(n NodeID) []CoreID {
	out := make([]CoreID, t.coresPerNode)
	first := t.nodeFirstCore[n]
	for i := range out {
		out[i] = first + CoreID(i)
	}
	return out
}

// Hops returns the interconnect distance from core c to node n's
// memory controller, measured in HyperTransport-style hops.
func (t *Topology) Hops(c CoreID, n NodeID) int {
	return t.hop[t.coreNode[c]][n]
}

// NodeOrder returns every node index sorted by hop distance from core
// c, ties broken by node id: the zone fallback order of the default
// allocation policy, which the kernel's tasks and the serving layer's
// clients both use.
func (t *Topology) NodeOrder(c CoreID) []int {
	out := make([]int, t.Nodes())
	for i := range out {
		out[i] = i
	}
	slices.SortFunc(out, func(a, b int) int {
		ha, hb := t.Hops(c, NodeID(a)), t.Hops(c, NodeID(b))
		return cmp.Or(cmp.Compare(ha, hb), cmp.Compare(a, b))
	})
	return out
}

// NodeHops returns the controller-to-controller hop distance.
func (t *Topology) NodeHops(a, b NodeID) int { return t.hop[a][b] }

// ValidCore reports whether c names a core in this topology.
func (t *Topology) ValidCore(c CoreID) bool {
	return c >= 0 && int(c) < len(t.coreNode)
}

// ValidNode reports whether n names a node in this topology.
func (t *Topology) ValidNode(n NodeID) bool {
	return n >= 0 && int(n) < t.Nodes()
}

// String summarizes the topology.
func (t *Topology) String() string {
	return fmt.Sprintf("topology{%d sockets, %d nodes, %d cores}",
		t.sockets, t.Nodes(), t.Cores())
}
