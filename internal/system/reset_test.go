package system

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"pdpasim/internal/core"
	"pdpasim/internal/machine"
	"pdpasim/internal/obs"
	"pdpasim/internal/policy"
	"pdpasim/internal/rm"
	"pdpasim/internal/sched"
	"pdpasim/internal/sim"
	"pdpasim/internal/trace"
	"pdpasim/internal/workload"
)

// recycled names, per component type, the fields a Reset may leave as they
// were because they are buffers kept for reuse: free lists, scratch slices,
// and tables whose leftover entries read as fresh ones. Every other field —
// and so every field added later — must equal its value in a zero value
// reset with the same arguments.
var recycled = map[reflect.Type][]string{
	reflect.TypeOf(trace.Recorder{}): {"allocs"},
	reflect.TypeOf(machine.Machine{}): {
		"affPool", "cpuPool",
		"quantumSeen", "pickOut", "nodeFree", "nodeFreeMem", "nodeOrder", "nodeOwned",
	},
	reflect.TypeOf(rm.SpaceManager{}): {"admitScratch", "planScratch", "viewFree", "jobFree", "reportsPool"},
	reflect.TypeOf(rm.IRIXManager{}): {
		"freeJobs", "tickEv",
		"threads", "threadJob", "selected", "selectedJob", "claimed", "placed", "homeless", "running",
	},
	reflect.TypeOf(rm.GangManager{}):         {"placedBuf"},
	reflect.TypeOf(core.PDPA{}):              {"free"},
	reflect.TypeOf(policy.EqualEfficiency{}): {"plan", "alphas", "next"},
	reflect.TypeOf(policy.Dynamic{}):         {"plan", "alphas", "gains"},
}

// stateDiff compares two values of one component type field by field and
// returns one line per difference. Slices and maps compare by length and
// elements (capacity and nil-versus-empty aside), func fields only by
// whether they are nil, and pointers by identity first — the arguments both
// resets received — then by what they point to.
func stateDiff(used, fresh any) []string {
	d := differ{seen: map[[2]uintptr]bool{}}
	a, b := reflect.ValueOf(used).Elem(), reflect.ValueOf(fresh).Elem()
	d.walk(a.Type().Name(), a, b)
	return d.out
}

type differ struct {
	out  []string
	seen map[[2]uintptr]bool
}

func (d *differ) report(path string, a, b any) {
	d.out = append(d.out, fmt.Sprintf("%s %v vs %v", path, a, b))
}

func (d *differ) walk(path string, a, b reflect.Value) {
	switch a.Kind() {
	case reflect.Struct:
		skip := map[string]bool{}
		for _, name := range recycled[a.Type()] {
			skip[name] = true
		}
		for i := 0; i < a.NumField(); i++ {
			if name := a.Type().Field(i).Name; !skip[name] {
				d.walk(path+"."+name, a.Field(i), b.Field(i))
			}
		}
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				d.report(path, nilness(a), nilness(b))
			}
			return
		}
		key := [2]uintptr{a.Pointer(), b.Pointer()}
		if key[0] == key[1] || d.seen[key] {
			return
		}
		d.seen[key] = true
		// An embedded struct's fields read as the embedding type's own.
		d.walk(path, a.Elem(), b.Elem())
	case reflect.Interface:
		if a.IsNil() || b.IsNil() || a.Elem().Type() != b.Elem().Type() {
			if typeOf(a) != typeOf(b) {
				d.report(path, typeOf(a), typeOf(b))
			}
			return
		}
		d.walk(path, a.Elem(), b.Elem())
	case reflect.Func, reflect.Chan:
		if a.IsNil() != b.IsNil() {
			d.report(path, nilness(a), nilness(b))
		}
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			d.report(path, fmt.Sprintf("len %d", a.Len()), fmt.Sprintf("len %d", b.Len()))
			return
		}
		for i := 0; i < a.Len(); i++ {
			d.walk(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i))
		}
	case reflect.Map:
		if a.Len() != b.Len() {
			d.report(path, fmt.Sprintf("len %d", a.Len()), fmt.Sprintf("len %d", b.Len()))
			return
		}
		it := a.MapRange()
		for it.Next() {
			k := it.Key()
			bv := b.MapIndex(k)
			if !bv.IsValid() {
				d.report(fmt.Sprintf("%s[%v]", path, k), "set", "missing")
				continue
			}
			d.walk(fmt.Sprintf("%s[%v]", path, k), it.Value(), bv)
		}
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			d.report(path, a.Bool(), b.Bool())
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			d.report(path, a.Int(), b.Int())
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if a.Uint() != b.Uint() {
			d.report(path, a.Uint(), b.Uint())
		}
	case reflect.Float32, reflect.Float64:
		x, y := a.Float(), b.Float()
		if x != y && !(math.IsNaN(x) && math.IsNaN(y)) {
			d.report(path, x, y)
		}
	case reflect.String:
		if a.String() != b.String() {
			d.report(path, a.String(), b.String())
		}
	default:
		d.report(path, "uncompared kind", a.Kind())
	}
}

func nilness(v reflect.Value) string {
	if v.IsNil() {
		return "nil"
	}
	return "set"
}

func typeOf(v reflect.Value) string {
	if v.IsNil() {
		return "nil"
	}
	return v.Elem().Type().String()
}

// TestResetEqualsFresh checks the claim every simulator component's Reset
// makes: a component recycled by a reused System is a fresh one. It runs
// every regime through one System — a w4 stream traced to completion on
// NUMA nodes, then an oversubscribed w3 stream cut off mid-run with jobs
// still placed, IRIX threads migrating and a second gang row active — and
// after each pass resets every component the System holds and compares it,
// field by field, with a zero value reset with the same arguments.
func TestResetEqualsFresh(t *testing.T) {
	kinds := []PolicyKind{PDPA, AdaptivePDPA, Equipartition, EqualEfficiency, Dynamic, IRIX, Gang}
	passes := []struct {
		name string
		cfg  Config
	}{
		{"complete", Config{
			Workload: smallWorkload(t, workload.W4(), 1.0, 5), Seed: 3,
			NUMANodeSize: 4, Trace: obs.NewTrace(0),
		}},
		{"mid-run", Config{
			Workload: smallWorkload(t, workload.W3(), 1.0, 5), Seed: 3,
			MaxSimTime: 40 * sim.Second,
		}},
	}
	s := NewSystem()
	for _, pass := range passes {
		for _, kind := range kinds {
			cfg := pass.cfg
			cfg.Policy = kind
			_, err := s.Run(cfg)
			if (err != nil) != (cfg.MaxSimTime > 0) {
				t.Fatalf("%s %s run: %v", pass.name, kind, err)
			}
		}
		check := func(name string, used, fresh any) {
			t.Helper()
			for _, line := range stateDiff(used, fresh) {
				t.Errorf("%s: %s reset differs from fresh: %s", pass.name, name, line)
			}
		}

		ncpu := pass.cfg.Workload.NCPU
		s.rec.Reset(ncpu)
		rec := new(trace.Recorder)
		rec.Reset(ncpu)
		check("recorder", s.rec, rec)

		s.mach.Reset(ncpu, s.rec)
		mach := new(machine.Machine)
		mach.Reset(ncpu, s.rec)
		check("machine", &s.mach, mach)

		for _, kind := range kinds {
			switch m := s.managers[kind].(type) {
			case *rm.SpaceManager:
				pol := m.Policy()
				fresh := reflect.New(reflect.TypeOf(pol).Elem()).Interface().(sched.Policy)
				resetAsSystem(t, pol)
				resetAsSystem(t, fresh)
				check(pol.Name(), pol, fresh)
				m.Reset(&s.eng, &s.mach, pol, s.rec)
				fm := new(rm.SpaceManager)
				fm.Reset(&s.eng, &s.mach, pol, s.rec)
				check(pol.Name()+" manager", m, fm)
			case *rm.IRIXManager:
				m.Reset(&s.eng, &s.mach, s.rec)
				fm := new(rm.IRIXManager)
				fm.Reset(&s.eng, &s.mach, s.rec)
				check("IRIX manager", m, fm)
			case *rm.GangManager:
				m.Reset(&s.eng, &s.mach, s.rec)
				fm := new(rm.GangManager)
				fm.Reset(&s.eng, &s.mach, s.rec)
				check("Gang manager", m, fm)
			default:
				t.Fatalf("%s: no manager in the System's table (%T)", kind, m)
			}
		}
	}
}

// resetAsSystem resets a space-sharing policy with the arguments System's
// resetPolicy passes for a run without PDPA overrides, but without the
// SetTrace call that follows there, so a Reset that keeps a stale trace
// shows.
func resetAsSystem(t *testing.T, pol sched.Policy) {
	t.Helper()
	var err error
	switch pol := pol.(type) {
	case *core.Adaptive:
		err = pol.Reset(core.DefaultParams(), 0.5, 0.85, 10)
	case *core.PDPA:
		err = pol.Reset(core.DefaultParams())
	case interface{ Reset() }:
		pol.Reset()
	default:
		t.Fatalf("%T has no Reset", pol)
	}
	if err != nil {
		t.Fatal(err)
	}
}
