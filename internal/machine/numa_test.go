package machine

import (
	"testing"
	"testing/quick"

	"pdpasim/internal/sim"
)

func numaMachine(t *testing.T, ncpu, nodeSize int) *Machine {
	t.Helper()
	m := New(ncpu, nil)
	m.SetNodeSize(nodeSize)
	return m
}

func TestNodeTopology(t *testing.T) {
	m := numaMachine(t, 16, 4)
	if m.Nodes() != 4 {
		t.Fatalf("nodes = %d", m.Nodes())
	}
	if m.NodeOf(0) != 0 || m.NodeOf(3) != 0 || m.NodeOf(4) != 1 || m.NodeOf(15) != 3 {
		t.Fatal("NodeOf mapping wrong")
	}
	// Flat machine defaults.
	flat := New(8, nil)
	if flat.Nodes() != 8 || flat.NodeOf(5) != 5 {
		t.Fatal("flat topology wrong")
	}
}

func TestSetNodeSizeValidation(t *testing.T) {
	m := New(10, nil)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("non-dividing node size accepted")
			}
		}()
		m.SetNodeSize(4)
	}()
	m2 := New(8, nil)
	m2.Resize(0, 1, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("SetNodeSize after allocation accepted")
		}
	}()
	m2.SetNodeSize(4)
}

func TestGrowPacksCompactly(t *testing.T) {
	m := numaMachine(t, 16, 4)
	m.Resize(0, 1, 4)
	if span := nodeSpan(m, 1); span != 1 {
		t.Fatalf("4-CPU job spans %d nodes, want 1", span)
	}
	if loc := locality(m, 1); loc != 1 {
		t.Fatalf("locality = %v", loc)
	}
	// A second job must land on different nodes, also compact.
	m.Resize(0, 2, 8)
	if span := nodeSpan(m, 2); span != 2 {
		t.Fatalf("8-CPU job spans %d nodes, want 2", span)
	}
	for _, cpu := range m.cpusOf(2) {
		if m.NodeOf(cpu) == 0 {
			t.Fatal("second job invaded the first job's node despite free nodes")
		}
	}
}

func TestGrowPrefersOwnNodes(t *testing.T) {
	m := numaMachine(t, 16, 4)
	m.Resize(0, 1, 2)          // node 0, cpus 0-1
	m.Resize(0, 2, 4)          // a different node
	m.Resize(sim.Second, 1, 4) // grow: must fill node 0 first
	if span := nodeSpan(m, 1); span != 1 {
		t.Fatalf("grown job spans %d nodes, want 1 (own-node preference)", span)
	}
}

func TestGrowFillsEmptiestNodeNext(t *testing.T) {
	m := numaMachine(t, 12, 4)
	m.Resize(0, 1, 4) // node 0 full
	m.Resize(0, 2, 2) // node 1, half
	m.Resize(0, 3, 4) // prefers the fully free node 2 over node 1's leftovers
	if span := nodeSpan(m, 3); span != 1 {
		t.Fatalf("job 3 spans %d nodes, want the empty node", span)
	}
}

func TestLocalityFragmented(t *testing.T) {
	m := numaMachine(t, 16, 4)
	m.Resize(0, 1, 4)            // node 0
	m.Resize(0, 2, 4)            // node 1
	m.Resize(0, 3, 4)            // node 2
	m.Resize(sim.Second, 1, 2)   // shrink: frees 2 CPUs on node 0
	m.Resize(sim.Second, 2, 2)   // frees 2 on node 1
	m.Resize(2*sim.Second, 4, 4) // must span nodes 0 and 1 fragments... or node 3
	// Node 3 is fully free: compact placement must use it.
	if span := nodeSpan(m, 4); span != 1 {
		t.Fatalf("job 4 spans %d nodes with a free node available", span)
	}
	// Now force fragmentation: job 5 wants 4 but only fragments remain.
	m.Resize(3*sim.Second, 5, 4)
	if got := len(m.cpusOf(5)); got != 4 {
		t.Fatalf("allocated %d", got)
	}
	if span := nodeSpan(m, 5); span < 2 {
		t.Fatalf("job 5 spans %d nodes, expected fragmentation", span)
	}
	if loc := locality(m, 5); loc >= 1 {
		t.Fatalf("fragmented locality = %v, want < 1", loc)
	}
}

func TestLocalityNoAllocation(t *testing.T) {
	m := numaMachine(t, 8, 4)
	if locality(m, 42) != 1 {
		t.Fatal("empty job locality should be 1")
	}
	if nodeSpan(m, 42) != 0 {
		t.Fatal("empty job span should be 0")
	}
}

// Property: under arbitrary resize sequences on a NUMA machine, ownership
// stays a partition and every fully-satisfiable compact request placed on an
// empty machine is compact.
func TestNUMAPartitionProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		m := New(16, nil)
		m.SetNodeSize(4)
		var now sim.Time
		for _, op := range ops {
			now += sim.Millisecond
			m.Resize(now, int(op)%5, int(op/5)%20)
		}
		total := 0
		for _, job := range jobsOf(m) {
			total += len(m.cpusOf(job))
			if locality(m, job) > 1 || locality(m, job) <= 0 {
				return false
			}
		}
		return total+m.FreeCPUs() == 16
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// locality returns the compactness of job's partition: the minimal number
// of nodes that could hold it divided by the number it actually spans
// (1 = perfectly compact, smaller = fragmented). Jobs with no processors
// score 1.
func locality(m *Machine, job int) float64 {
	n := len(m.cpusOf(job))
	if n == 0 {
		return 1
	}
	size := m.nodeSize()
	minNodes := (n + size - 1) / size
	span := nodeSpan(m, job)
	if span == 0 {
		return 1
	}
	return float64(minNodes) / float64(span)
}

// nodeSpan returns how many NUMA nodes job's partition touches.
func nodeSpan(m *Machine, job int) int {
	seen := map[int]bool{}
	for _, cpu := range m.cpusOf(job) {
		seen[m.NodeOf(cpu)] = true
	}
	return len(seen)
}
