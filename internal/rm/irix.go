package rm

import (
	"pdpasim/internal/machine"
	"pdpasim/internal/nthlib"
	"pdpasim/internal/obs"
	"pdpasim/internal/sched"
	"pdpasim/internal/selfanalyzer"
	"pdpasim/internal/sim"
	"pdpasim/internal/trace"
)

// The native-scheduler model's parameters: the evaluation's IRIX testbed.
const (
	// irixQuantum is the time-sharing quantum.
	irixQuantum = 100 * sim.Millisecond
	// irixBusyWait is the efficiency multiplier applied while the machine
	// is oversubscribed: preempted OpenMP threads leave their siblings
	// spinning at barriers (MP_BLOCKTIME) and holding pages the runs need.
	irixBusyWait = 0.7
	// irixAdjustEvery is how often the SGI-MP runtime's OMP_DYNAMIC
	// adaptation runs, in quanta — deliberately slow ("unresponsiveness of
	// the native runtime to changes in the system load", Section 5.1.1):
	// 10 s per single-thread adjustment.
	irixAdjustEvery = 100
)

type irixJob struct {
	id      sched.JobID
	rt      *nthlib.Runtime
	threads int // kernel threads (OMP_NUM_THREADS, adapted by OMP_DYNAMIC)
	// lastK is the thread-on-CPU count of the previous quantum; a running→0
	// edge is a preemption for the decision trace (recording the edge, not
	// every idle quantum, keeps the event count bounded).
	lastK int32
}

func (j *irixJob) jobID() sched.JobID { return j.id }

// IRIXManager models the native IRIX scheduler with the SGI-MP runtime:
// applications create as many kernel threads as processors they request, and
// every quantum the scheduler assigns threads to CPUs preferring affinity
// (a thread's previous CPU) but rotating runnable threads when the machine
// is oversubscribed — producing the migrations, short bursts, and chaotic
// execution views of Fig. 5 and Table 2.
//
// place runs every quantum — it is the single hottest function of an IRIX
// simulation — so the manager keeps its running set in an incrementally
// maintained id-sorted slice (no per-quantum map iteration or sort) and
// reuses finished irixJob structs through a free list.
//
// The global thread list is cached with each thread's index in the running
// set, and rebuilt only when a start, a finish, an OMP_DYNAMIC thread-count
// change or Reset marked it stale; place counts each job's running threads
// through that index as it places them. A quantum is settled when the last
// full placement was not oversubscribed and the thread list has not changed
// since: then every thread sits on its last CPU, all distinct, so the next
// placement would be the same one — no owner change, no migration — and
// place keeps it without a machine call. Rates are still pushed every
// quantum (see the end of place).
type IRIXManager struct {
	eng  *sim.Engine
	mach *machine.Machine
	rec  *trace.Recorder
	tr   *obs.Trace

	// order is the running set sorted by ascending id, maintained on
	// StartJob/JobFinished; lookups binary-search it.
	order         []*irixJob
	freeJobs      []*irixJob
	cursor        int
	quantumCount  int
	tickScheduled bool
	admission     func()

	// threads is the global thread list in stable (job, thread) order and
	// threadJob each thread's index in order. stale marks them out of date
	// with the running set; settled marks a quantum whose placement repeats
	// the previous one.
	threads   []machine.ThreadID
	threadJob []int32
	stale     bool
	settled   bool

	// Per-quantum scratch state, reused across ticks: place runs every
	// quantum (thousands of times per simulated run) and its transient
	// slices would otherwise dominate the allocation profile.
	tickFn      func()
	tickEv      *sim.Event
	selected    []machine.ThreadID
	selectedJob []int32
	claimed     []bool
	placed      []machine.Placement
	homeless    []int32 // indexes into selected
	running     []int32 // per-order-index thread-on-CPU counts this quantum
}

// Reset initializes the native-scheduler model over mach with no job running
// and no admission hook or trace attached. It is the manager's only
// initializer: a new manager is Reset on a zero value, and a reused manager
// keeps its free list and per-quantum scratch buffers. The quantum-tick
// event struct is kept for reuse too: a reused manager's engine has been
// Reset (or drained), which detaches the old arming, and ScheduleInto
// re-arms a detached struct in place.
func (m *IRIXManager) Reset(eng *sim.Engine, mach *machine.Machine, rec *trace.Recorder) {
	for _, j := range m.order {
		j.rt = nil
		m.freeJobs = append(m.freeJobs, j)
	}
	m.order = m.order[:0]
	m.eng = eng
	m.mach = mach
	m.rec = rec
	m.tr = nil
	m.cursor = 0
	m.quantumCount = 0
	m.tickScheduled = false
	m.admission = nil
	m.stale = true
	m.settled = false
	if m.tickFn == nil {
		m.tickFn = m.tick
	}
}

// Name implements Manager.
func (m *IRIXManager) Name() string { return "IRIX" }

// SetTrace attaches a decision-trace recorder (nil detaches): preemptions —
// an application losing all its CPUs for a quantum — are recorded.
func (m *IRIXManager) SetTrace(tr *obs.Trace) { m.tr = tr }

// Running implements Manager.
func (m *IRIXManager) Running() int { return len(m.order) }

// CanAdmit implements Manager: the native scheduler has no coordination with
// the queuing system; the fixed multiprogramming level alone governs.
func (m *IRIXManager) CanAdmit() bool { return true }

// SetAdmissionChanged implements Manager.
func (m *IRIXManager) SetAdmissionChanged(fn func()) { m.admission = fn }

// ReportPerformance implements Manager. The native runtime takes no
// measurements; nothing flows here.
func (m *IRIXManager) ReportPerformance(id sched.JobID, meas selfanalyzer.Measurement) {}

// StartJob implements Manager.
func (m *IRIXManager) StartJob(id sched.JobID, rt *nthlib.Runtime) {
	var j *irixJob
	if n := len(m.freeJobs); n > 0 {
		j = m.freeJobs[n-1]
		m.freeJobs = m.freeJobs[:n-1]
		*j = irixJob{}
	} else {
		j = &irixJob{}
	}
	j.id, j.rt, j.threads = id, rt, rt.Request()
	m.order = insertByID(m.order, j)
	m.stale = true
	m.place()
	m.ensureTick()
}

// JobFinished implements Manager.
func (m *IRIXManager) JobFinished(id sched.JobID) {
	i := indexByID(m.order, id)
	if i < 0 {
		return
	}
	j := m.order[i]
	m.order = append(m.order[:i], m.order[i+1:]...)
	j.rt = nil
	m.freeJobs = append(m.freeJobs, j)
	m.mach.ForgetThreads(int(id))
	m.stale = true
	m.place()
	if m.admission != nil {
		m.admission()
	}
}

func (m *IRIXManager) ensureTick() {
	if m.tickScheduled {
		return
	}
	m.tickScheduled = true
	m.tickEv = m.eng.ScheduleInto(m.tickEv, m.eng.Now()+irixQuantum, "irix/quantum", m.tickFn)
}

func (m *IRIXManager) tick() {
	m.tickScheduled = false
	if len(m.order) == 0 {
		return
	}
	m.quantumCount++
	if m.quantumCount%irixAdjustEvery == 0 {
		m.adjustThreads()
	}
	m.place()
	m.ensureTick()
}

// adjustThreads is the OMP_DYNAMIC model: the SGI-MP runtime adapts thread
// counts toward the machine capacity, but slowly — a single thread across
// the whole machine per adjustment interval, long after the load changed
// (the "unresponsiveness of the native runtime system to changes in the
// system load" of Section 5.1.1).
func (m *IRIXManager) adjustThreads() {
	total := 0
	for _, j := range m.order {
		total += j.threads
	}
	ncpu := m.mach.NCPU()
	switch {
	case total > ncpu:
		var victim *irixJob
		for _, j := range m.order {
			if j.threads > 1 && (victim == nil || j.threads > victim.threads) {
				victim = j
			}
		}
		if victim != nil {
			victim.threads--
			m.stale = true
		}
	case total < ncpu:
		var beneficiary *irixJob
		for _, j := range m.order {
			if j.threads < j.rt.Request() && (beneficiary == nil || j.threads < beneficiary.threads) {
				beneficiary = j
			}
		}
		if beneficiary != nil {
			beneficiary.threads++
			m.stale = true
		}
	}
}

// rebuildThreads rebuilds the cached thread list from the running set.
func (m *IRIXManager) rebuildThreads() {
	total := 0
	for _, j := range m.order {
		total += j.threads
	}
	if cap(m.threads) < total {
		m.threads = make([]machine.ThreadID, 0, 2*total)
		m.threadJob = make([]int32, 0, 2*total)
	}
	threads, threadJob := m.threads[:0], m.threadJob[:0]
	for idx, j := range m.order {
		for i := 0; i < j.threads; i++ {
			threads = append(threads, machine.ThreadID{Job: int(j.id), Thread: i})
			threadJob = append(threadJob, int32(idx))
		}
	}
	m.threads, m.threadJob = threads, threadJob
	if cap(m.running) < len(m.order) {
		m.running = make([]int32, len(m.order)*2)
	}
	m.stale = false
	m.settled = false
}

// place computes this quantum's thread-to-CPU assignment and the resulting
// per-application progress rates.
func (m *IRIXManager) place() {
	now := m.eng.Now()
	jobs := m.order
	if len(jobs) == 0 {
		m.mach.PlaceQuantum(now, nil)
		return
	}
	if m.stale {
		m.rebuildThreads()
	}
	ncpu := m.mach.NCPU()
	oversubscribed := len(m.threads) > ncpu
	// A settled quantum keeps the previous placement and its per-job
	// running counts.
	running := m.running[:len(jobs)]
	if !m.settled {
		m.placeThreads(now, running)
		m.settled = !oversubscribed
	}

	for idx, j := range jobs {
		k := int(running[idx])
		if m.rec != nil {
			m.rec.ObserveAllocation(now, int(j.id), k)
		}
		if k == 0 {
			if m.tr != nil && j.lastK > 0 {
				m.tr.Record(obs.Event{
					At: now, Kind: obs.KindPreempt, Job: int32(j.id), From: j.lastK,
				})
			}
			j.lastK = 0
			j.rt.SetRawRate(0, 0)
			continue
		}
		j.lastK = int32(k)
		s := j.rt.Profile().SpeedupAt(j.rt.IterationsDone()).Speedup(j.threads)
		rate := s * float64(k) / float64(j.threads)
		if oversubscribed {
			rate *= irixBusyWait
		}
		// Always push the rate, even when unchanged since the previous
		// quantum: SetRate advances the progress integral in per-quantum
		// chunks, and coalescing chunks perturbs floating-point rounding
		// enough to change reported digits.
		j.rt.SetRawRate(rate, k)
	}
}

// placeThreads selects this quantum's threads, assigns them to CPUs
// preferring affinity, applies the placement to the machine, and counts
// each job's placed threads into running (indexed like the running set).
func (m *IRIXManager) placeThreads(now sim.Time, running []int32) {
	threads, threadJob := m.threads, m.threadJob
	ncpu := m.mach.NCPU()
	// No scratch slice outgrows the machine: at most ncpu threads are
	// selected, placed or left homeless.
	if len(m.claimed) < ncpu {
		m.claimed = make([]bool, ncpu)
		m.selected = make([]machine.ThreadID, 0, ncpu)
		m.selectedJob = make([]int32, 0, ncpu)
		m.placed = make([]machine.Placement, 0, ncpu)
		m.homeless = make([]int32, 0, ncpu)
	}
	selected, selectedJob := threads, threadJob
	if n := len(threads); n > ncpu {
		// Round-robin rotation across quanta: each quantum runs the next
		// window of runnable threads, copied in at most two pieces.
		if m.cursor >= n {
			m.cursor %= n
		}
		end := min(m.cursor+ncpu, n)
		wrap := m.cursor + ncpu - end
		selected = append(append(m.selected[:0], threads[m.cursor:end]...), threads[:wrap]...)
		selectedJob = append(append(m.selectedJob[:0], threadJob[m.cursor:end]...), threadJob[:wrap]...)
		m.selected, m.selectedJob = selected, selectedJob
		m.cursor = (m.cursor + ncpu) % n
	}

	// Affinity pass: threads keep their previous CPU when possible.
	claimed := m.claimed[:ncpu]
	clear(claimed)
	clear(running)
	placements := m.placed[:0]
	homeless := m.homeless[:0]
	// Selected threads come grouped by job: read each job's affinity table
	// once, not each thread's entry through the machine.
	var last []int32
	lastJob := int32(-1)
	for i, tid := range selected {
		if j := selectedJob[i]; j != lastJob {
			lastJob, last = j, m.mach.LastCPUsView(tid.Job)
		}
		if tid.Thread < len(last) {
			if cpu := last[tid.Thread]; cpu >= 0 && !claimed[cpu] {
				claimed[cpu] = true
				placements = append(placements, machine.Placement{CPU: int(cpu), Thread: tid})
				running[lastJob]++
				continue
			}
		}
		homeless = append(homeless, int32(i))
	}
	cpu := 0
	for _, i := range homeless {
		for cpu < ncpu && claimed[cpu] {
			cpu++
		}
		if cpu >= ncpu {
			break
		}
		claimed[cpu] = true
		placements = append(placements, machine.Placement{CPU: cpu, Thread: selected[i]})
		running[selectedJob[i]]++
	}
	m.placed = placements
	m.homeless = homeless
	m.mach.PlaceQuantum(now, placements)
}
