package machine

import (
	"math/bits"
	"sort"
)

// NUMA topology support. The paper's testbed is an SGI Origin 2000, a
// CC-NUMA machine built from node boards of a few processors each; data
// locality is one of the reasons the paper evaluates on real hardware
// rather than simulation (Section 2), and why stable processor allocations
// matter (memory pages migrate toward their users).
//
// The machine model captures the placement side of this: processors are
// grouped into nodes of NodeSize, Resize prefers to grow a job onto nodes
// it already occupies (then onto the emptiest nodes), keeping each job's
// partition compact. Time-sharing placements (the
// IRIX model) bypass this logic — exactly the locality destruction the
// paper attributes to the native scheduler.

// nodeSize returns the machine's NUMA node size (1 = flat SMP).
func (m *Machine) nodeSize() int {
	if m.numaNodeSize < 1 {
		return 1
	}
	return m.numaNodeSize
}

// SetNodeSize declares the NUMA node size. It must be called before any
// allocation and must divide the processor count; nodeSize <= 1 keeps the
// flat model.
func (m *Machine) SetNodeSize(nodeSize int) {
	if nodeSize > 1 && m.ncpu%nodeSize != 0 {
		panic("machine: node size must divide the CPU count")
	}
	for _, o := range m.owner {
		if o != Free {
			panic("machine: SetNodeSize after allocation")
		}
	}
	m.numaNodeSize = nodeSize
}

// NodeOf returns the NUMA node a CPU belongs to.
func (m *Machine) NodeOf(cpu int) int { return cpu / m.nodeSize() }

// Nodes returns the number of NUMA nodes.
func (m *Machine) Nodes() int { return (m.ncpu + m.nodeSize() - 1) / m.nodeSize() }

// pickFreeCPUs returns want free CPUs for job, preferring nodes the job
// already occupies, then the nodes with the most free processors (packing
// new jobs compactly), then CPU order. It returns fewer if the machine has
// fewer free. The returned slice is scratch, valid until the next call.
func (m *Machine) pickFreeCPUs(job, want int) []int {
	size := m.nodeSize()
	out := m.pickOut[:0]
	if size <= 1 {
		// Flat machine: first-free order, walking the free bitset.
		for w, word := range m.freeMask {
			for word != 0 && len(out) < want {
				out = append(out, w<<6+bits.TrailingZeros64(word))
				word &= word - 1
			}
			if len(out) >= want {
				break
			}
		}
		m.pickOut = out
		return out
	}
	nodes := m.Nodes()
	if cap(m.nodeFree) < nodes {
		m.nodeFree = make([][]int, nodes)
		m.nodeOwned = make([]bool, nodes)
	}
	freeOn := m.nodeFree[:nodes]
	mem := m.nodeFreeMem[:0]
	for w, word := range m.freeMask {
		for word != 0 {
			mem = append(mem, w<<6+bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
	m.nodeFreeMem = mem
	// mem is ascending, so each node's free CPUs form one contiguous run.
	for n := range freeOn {
		freeOn[n] = nil
	}
	for i := 0; i < len(mem); {
		n := m.NodeOf(mem[i])
		j := i
		for j < len(mem) && m.NodeOf(mem[j]) == n {
			j++
		}
		freeOn[n] = mem[i:j]
		i = j
	}
	occupied := m.nodeOwned[:nodes]
	clear(occupied)
	for _, cpu := range m.cpusOf(job) {
		occupied[m.NodeOf(cpu)] = true
	}
	order := m.nodeOrder[:0]
	for n := 0; n < nodes; n++ {
		if len(freeOn[n]) > 0 {
			order = append(order, n)
		}
	}
	sort.SliceStable(order, func(a, b int) bool {
		na, nb := order[a], order[b]
		// Nodes the job already uses come first.
		if occupied[na] != occupied[nb] {
			return occupied[na]
		}
		// Then emptier-for-us nodes (more free CPUs) to keep partitions
		// compact.
		if len(freeOn[na]) != len(freeOn[nb]) {
			return len(freeOn[na]) > len(freeOn[nb])
		}
		return na < nb
	})
	m.nodeOrder = order
	for _, n := range order {
		for _, cpu := range freeOn[n] {
			if len(out) == want {
				m.pickOut = out
				return out
			}
			out = append(out, cpu)
		}
	}
	m.pickOut = out
	return out
}
