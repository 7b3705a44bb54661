package qs

import (
	"testing"

	"pdpasim/internal/app"
	"pdpasim/internal/sim"
	"pdpasim/internal/trace"
	"pdpasim/internal/workload"
)

func job(id int, submit sim.Time) workload.Job {
	return workload.Job{ID: id, Class: app.BT, Submit: submit, Request: 30}
}

func TestFixedMPLEnforced(t *testing.T) {
	eng := sim.NewEngine()
	var started []int
	q := New(eng, 2, nil, func(j workload.Job) { started = append(started, j.ID) }, nil)
	for i := 0; i < 5; i++ {
		q.Enqueue(job(i, 0))
	}
	if len(started) != 2 {
		t.Fatalf("started %d, want 2 (fixed MPL)", len(started))
	}
	q.JobCompleted()
	if len(started) != 3 {
		t.Fatalf("started %d after completion, want 3", len(started))
	}
	if q.Queued() != 2 || q.Running() != 2 {
		t.Fatalf("queued=%d running=%d", q.Queued(), q.Running())
	}
}

func TestAdmissionGate(t *testing.T) {
	eng := sim.NewEngine()
	allow := false
	started := 0
	q := New(eng, 0, func() bool { return allow }, func(workload.Job) { started++ }, nil)
	q.Enqueue(job(0, 0))
	if started != 0 {
		t.Fatal("started despite admission denial")
	}
	allow = true
	q.TryStart()
	if started != 1 {
		t.Fatal("not started after admission opened")
	}
}

func TestUnlimitedMPLWithOpenAdmission(t *testing.T) {
	eng := sim.NewEngine()
	started := 0
	q := New(eng, 0, nil, func(workload.Job) { started++ }, nil)
	for i := 0; i < 40; i++ {
		q.Enqueue(job(i, 0))
	}
	if started != 40 {
		t.Fatalf("started = %d, want all 40", started)
	}
	if q.MaxMPL() != 40 {
		t.Fatalf("maxMPL = %d", q.MaxMPL())
	}
}

func TestSubmitAllSchedulesArrivals(t *testing.T) {
	eng := sim.NewEngine()
	rec := trace.NewRecorder(1)
	var starts []sim.Time
	q := New(eng, 4, nil, func(workload.Job) { starts = append(starts, eng.Now()) }, rec)
	w := &workload.Workload{NCPU: 1, Jobs: []workload.Job{
		job(0, 5*sim.Second), job(1, 10*sim.Second),
	}}
	q.SubmitAll(w)
	eng.RunUntilIdle()
	if len(starts) != 2 || starts[0] != 5*sim.Second || starts[1] != 10*sim.Second {
		t.Fatalf("starts = %v", starts)
	}
	if len(rec.MPLTimeline()) == 0 {
		t.Fatal("MPL not observed")
	}
}

func TestReentrantTryStart(t *testing.T) {
	eng := sim.NewEngine()
	started := 0
	var q *QueuingSystem
	q = New(eng, 0, nil, func(workload.Job) {
		started++
		q.TryStart() // manager callbacks may poke the queue mid-start
	}, nil)
	q.Enqueue(job(0, 0))
	q.Enqueue(job(1, 0))
	if started != 2 {
		t.Fatalf("started = %d", started)
	}
}

func TestDrained(t *testing.T) {
	eng := sim.NewEngine()
	q := New(eng, 1, nil, func(workload.Job) {}, nil)
	if !q.Drained() {
		t.Fatal("empty queue should be drained")
	}
	q.Enqueue(job(0, 0))
	if q.Drained() {
		t.Fatal("running job should block drained")
	}
	q.JobCompleted()
	if !q.Drained() || q.Started() != 1 {
		t.Fatalf("drained=%v started=%d", q.Drained(), q.Started())
	}
}

func TestNilStartPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(sim.NewEngine(), 1, nil, nil, nil)
}

func TestNegativeMPLTreatedUnlimited(t *testing.T) {
	eng := sim.NewEngine()
	started := 0
	q := New(eng, -3, nil, func(workload.Job) { started++ }, nil)
	for i := 0; i < 10; i++ {
		q.Enqueue(job(i, 0))
	}
	if started != 10 {
		t.Fatalf("started = %d", started)
	}
}
