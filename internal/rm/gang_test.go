package rm

import (
	"testing"

	"pdpasim/internal/app"
	"pdpasim/internal/machine"
	"pdpasim/internal/nthlib"
	"pdpasim/internal/sched"
	"pdpasim/internal/sim"
	"pdpasim/internal/trace"
)

func gangEnv(ncpu int) (*sim.Engine, *GangManager, *trace.Recorder) {
	eng := sim.NewEngine()
	rec := trace.NewRecorder(ncpu)
	mgr := new(GangManager)
	mgr.Reset(eng, machine.New(ncpu, rec), rec)
	return eng, mgr, rec
}

func gangJobOn(eng *sim.Engine, mgr *GangManager, id sched.JobID, class app.Class, request int, done *int) *nthlib.Runtime {
	prof := app.ProfileFor(class)
	rt := nthlib.New(eng, prof, request, nil, nthlib.Hooks{
		OnDone: func() {
			mgr.JobFinished(id)
			if done != nil {
				*done++
			}
		},
	})
	mgr.StartJob(id, rt)
	return rt
}

func TestGangSingleJobRunsFullSpeed(t *testing.T) {
	eng, mgr, _ := gangEnv(60)
	done := 0
	gangJobOn(eng, mgr, 0, app.Apsi, 2, &done)
	eng.Run(sim.Forever)
	if done != 1 {
		t.Fatal("job did not finish")
	}
	// One row: no time slicing, finish near the dedicated time (plus the
	// initial switch penalty).
	want := app.ProfileFor(app.Apsi).DedicatedTime(2)
	if got := eng.Now(); got < want || got > want+5*sim.Second {
		t.Fatalf("finish at %v, want ~%v", got, want)
	}
	if len(mgr.rows) != 0 {
		t.Fatalf("rows = %d after completion", len(mgr.rows))
	}
}

func TestGangPacksRowsFirstFit(t *testing.T) {
	eng, mgr, _ := gangEnv(60)
	gangJobOn(eng, mgr, 0, app.BT, 30, nil)
	gangJobOn(eng, mgr, 1, app.BT, 30, nil) // fits row 0 (30+30=60)
	if len(mgr.rows) != 1 {
		t.Fatalf("rows = %d, want 1 (two 30s pack)", len(mgr.rows))
	}
	gangJobOn(eng, mgr, 2, app.BT, 30, nil) // opens row 1
	if len(mgr.rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(mgr.rows))
	}
	_ = eng
}

func TestGangTimeDilation(t *testing.T) {
	// Two rows: each job runs ~half the time, so completion takes ~2x the
	// dedicated time.
	eng, mgr, _ := gangEnv(8)
	var doneAt [2]sim.Time
	for i := 0; i < 2; i++ {
		i := i
		id := sched.JobID(i)
		prof := app.ProfileFor(app.Apsi)
		rt := nthlib.New(eng, prof, 8, nil, nthlib.Hooks{
			OnDone: func() { mgr.JobFinished(id); doneAt[i] = eng.Now() },
		})
		mgr.StartJob(id, rt)
	}
	if len(mgr.rows) != 2 {
		t.Fatalf("rows = %d", len(mgr.rows))
	}
	eng.Run(sim.Forever)
	dedicated := app.ProfileFor(app.Apsi).DedicatedTime(8)
	first := doneAt[0]
	if doneAt[1] < first {
		first = doneAt[1]
	}
	if first < sim.Time(float64(dedicated)*1.7) {
		t.Fatalf("first completion at %v, want >= ~2x dedicated %v", first, dedicated)
	}
}

func TestGangNoMigrations(t *testing.T) {
	eng, mgr, rec := gangEnv(8)
	for i := 0; i < 3; i++ {
		id := sched.JobID(i)
		prof := app.ProfileFor(app.Hydro2D)
		rt := nthlib.New(eng, prof, 6, nil, nthlib.Hooks{
			OnDone: func() { mgr.JobFinished(id) },
		})
		mgr.StartJob(id, rt)
	}
	eng.Run(120 * sim.Second)
	// Gangs have fixed CPU sets: the whole point versus IRIX.
	if rec.Stats().Migrations > 0 {
		t.Fatalf("migrations = %d, want 0", rec.Stats().Migrations)
	}
}

func TestGangRowCompaction(t *testing.T) {
	eng, mgr, _ := gangEnv(60)
	done := 0
	gangJobOn(eng, mgr, 0, app.Swim, 40, &done) // row 0 (short job)
	gangJobOn(eng, mgr, 1, app.BT, 30, &done)   // row 1
	// Let the short swim finish; bt must then run every slot.
	eng.Run(60 * sim.Second)
	if done != 1 {
		t.Fatalf("done = %d, want the short job finished", done)
	}
	if len(mgr.rows) != 1 {
		t.Fatalf("rows = %d after compaction, want 1", len(mgr.rows))
	}
	eng.Run(sim.Forever)
	if done != 2 {
		t.Fatal("bt did not finish")
	}
}

func TestGangRequestAboveMachineClamped(t *testing.T) {
	eng, mgr, _ := gangEnv(8)
	done := 0
	gangJobOn(eng, mgr, 0, app.Apsi, 64, &done)
	eng.Run(sim.Forever)
	if done != 1 {
		t.Fatal("oversized job did not finish")
	}
}

func TestGangUnknownJobFinishedIgnored(t *testing.T) {
	_, mgr, _ := gangEnv(4)
	mgr.JobFinished(99) // must not panic
	if mgr.Name() != "Gang" || !mgr.CanAdmit() {
		t.Fatal("identity")
	}
}
