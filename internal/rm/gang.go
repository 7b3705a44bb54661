package rm

import (
	"slices"

	"pdpasim/internal/machine"
	"pdpasim/internal/nthlib"
	"pdpasim/internal/sched"
	"pdpasim/internal/selfanalyzer"
	"pdpasim/internal/sim"
	"pdpasim/internal/trace"
)

// gangSlot is the time slice each row of the Ousterhout matrix runs, coarse
// enough to amortize the switch.
const gangSlot = 2 * sim.Second

type gangJob struct {
	id  sched.JobID
	rt  *nthlib.Runtime
	row int
	// cpus are the machine CPUs the gang occupies while its row runs.
	cpus []int
}

func (j *gangJob) jobID() sched.JobID { return j.id }

// GangManager implements classic gang scheduling (Ousterhout matrix): jobs
// are packed into rows first-fit by their full processor request; time is
// sliced into slots and rows run round-robin, each job running with all of
// its threads simultaneously or not at all. Gang scheduling is the classic
// alternative to space sharing for parallel workloads: it gives every job
// dedicated-machine behaviour while it runs, at the price of time-dilation
// by the number of rows and of fragmentation inside rows — the trade-off
// the paper's Section 4.3 discussion of rigid allocations describes.
type GangManager struct {
	eng  *sim.Engine
	mach *machine.Machine
	rec  *trace.Recorder

	// jobs is the running set sorted by ascending id; rows holds the same
	// jobs by row of the matrix.
	jobs          []*gangJob
	rows          [][]*gangJob
	activeRow     int
	tickScheduled bool
	admission     func()

	// applySlot scratch, reused across slots.
	placedBuf []machine.Placement
}

// NewGangManager returns a gang scheduler over mach.
func NewGangManager(eng *sim.Engine, mach *machine.Machine, rec *trace.Recorder) *GangManager {
	m := new(GangManager)
	m.Reset(eng, mach, rec)
	return m
}

// Reset initializes the gang scheduler over mach with an empty matrix and
// no admission hook. It is the manager's only initializer: NewGangManager
// calls it on a zero value, and a reused manager keeps its scratch buffers.
func (m *GangManager) Reset(eng *sim.Engine, mach *machine.Machine, rec *trace.Recorder) {
	clear(m.jobs)
	m.jobs = m.jobs[:0]
	clear(m.rows)
	m.rows = m.rows[:0]
	m.eng = eng
	m.mach = mach
	m.rec = rec
	m.activeRow = 0
	m.tickScheduled = false
	m.admission = nil
}

// Name implements Manager.
func (m *GangManager) Name() string { return "Gang" }

// Running implements Manager.
func (m *GangManager) Running() int { return len(m.jobs) }

// CanAdmit implements Manager: the fixed multiprogramming level governs.
func (m *GangManager) CanAdmit() bool { return true }

// SetAdmissionChanged implements Manager.
func (m *GangManager) SetAdmissionChanged(fn func()) { m.admission = fn }

// ReportPerformance implements Manager: gang scheduling ignores measured
// performance.
func (m *GangManager) ReportPerformance(id sched.JobID, meas selfanalyzer.Measurement) {}

// StartJob implements Manager: pack the job into the first row with enough
// spare capacity, or open a new row.
func (m *GangManager) StartJob(id sched.JobID, rt *nthlib.Runtime) {
	j := &gangJob{id: id, rt: rt}
	request := min(rt.Request(), m.mach.NCPU())
	m.placeInRow(j, request)
	m.jobs = insertByID(m.jobs, j)
	m.assignCPUs(j, request)
	m.applySlot()
	m.ensureTick()
}

// placeInRow puts j in the first row whose occupancy leaves room for
// request.
func (m *GangManager) placeInRow(j *gangJob, request int) {
	for r, row := range m.rows {
		occupied := 0
		for _, other := range row {
			occupied += len(other.cpus)
		}
		if occupied+request <= m.mach.NCPU() {
			m.rows[r] = append(row, j)
			j.row = r
			return
		}
	}
	m.rows = append(m.rows, []*gangJob{j})
	j.row = len(m.rows) - 1
}

// assignCPUs fixes the CPU set a gang occupies within its row (disjoint from
// its row-mates).
func (m *GangManager) assignCPUs(j *gangJob, request int) {
	used := make([]bool, m.mach.NCPU())
	for _, other := range m.rows[j.row] {
		for _, cpu := range other.cpus {
			used[cpu] = true
		}
	}
	for cpu := 0; cpu < len(used) && len(j.cpus) < request; cpu++ {
		if !used[cpu] {
			j.cpus = append(j.cpus, cpu)
		}
	}
}

// JobFinished implements Manager.
func (m *GangManager) JobFinished(id sched.JobID) {
	i := indexByID(m.jobs, id)
	if i < 0 {
		return
	}
	j := m.jobs[i]
	m.jobs = slices.Delete(m.jobs, i, i+1)
	row := m.rows[j.row]
	k := slices.Index(row, j)
	m.rows[j.row] = slices.Delete(row, k, k+1)
	m.compactRows()
	m.mach.ForgetThreads(int(id))
	m.applySlot()
	if m.admission != nil {
		m.admission()
	}
}

// compactRows drops empty rows so completed workloads do not slow the
// remaining jobs.
func (m *GangManager) compactRows() {
	rows := m.rows[:0]
	for _, row := range m.rows {
		if len(row) > 0 {
			rows = append(rows, row)
		}
	}
	m.rows = rows
	for r, row := range m.rows {
		for _, j := range row {
			j.row = r
		}
	}
	if len(m.rows) > 0 {
		m.activeRow %= len(m.rows)
	} else {
		m.activeRow = 0
	}
}

func (m *GangManager) ensureTick() {
	if m.tickScheduled {
		return
	}
	m.tickScheduled = true
	m.eng.After(gangSlot, "gang/slot", m.tick)
}

func (m *GangManager) tick() {
	m.tickScheduled = false
	if len(m.jobs) == 0 {
		return
	}
	if len(m.rows) > 0 {
		m.activeRow = (m.activeRow + 1) % len(m.rows)
	}
	m.applySlot()
	m.ensureTick()
}

// applySlot runs the active row's gangs at full speed and stops everyone
// else.
func (m *GangManager) applySlot() {
	now := m.eng.Now()
	placements := m.placedBuf[:0]
	for _, j := range m.jobs {
		active := len(m.rows) > 0 && j.row == m.activeRow
		if !active {
			j.rt.SetRawRate(0, 0)
			if m.rec != nil {
				m.rec.ObserveAllocation(now, int(j.id), 0)
			}
			continue
		}
		for i, cpu := range j.cpus {
			placements = append(placements, machine.Placement{
				CPU:    cpu,
				Thread: machine.ThreadID{Job: int(j.id), Thread: i},
			})
		}
		procs := len(j.cpus)
		speedup := j.rt.Profile().SpeedupAt(j.rt.IterationsDone()).Speedup(procs)
		j.rt.SetRawRate(speedup, procs)
		if m.rec != nil {
			m.rec.ObserveAllocation(now, int(j.id), procs)
		}
	}
	m.placedBuf = placements
	m.mach.PlaceQuantum(now, placements)
}

// Rows returns the current number of rows in the scheduling matrix.
func (m *GangManager) Rows() int { return len(m.rows) }
