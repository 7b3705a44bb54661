package scenario

import (
	"reflect"
	"strconv"
	"strings"
	"testing"

	"pdpasim/client"
	"pdpasim/internal/runqueue"
)

// wireEnums holds valid values for the wire's enumerated string fields and
// lists; any other string gets a generic value.
var wireEnums = func() map[string][]string {
	mixes := []string{"w1", "w2", "w3", "w4"}
	policies := []string{"pdpa", "pdpa_adaptive", "equip", "gang"}
	return map[string][]string{"mix": mixes, "mixes": mixes, "policy": policies, "policies": policies}
}()

// wireGen fills wire structs with distinct non-zero values that the daemon's
// validation accepts. Floats ascend with field order, which keeps high_eff
// above target_eff; enumerated strings cycle through their valid values.
type wireGen struct {
	n     int
	enums map[string]int
}

// fill sets every json-tagged field of v and returns the YAML flow mapping
// spelling the values.
func (g *wireGen) fill(t *testing.T, v reflect.Value) string {
	t.Helper()
	scalar := func(key string, dst reflect.Value) string {
		g.n++
		switch dst.Kind() {
		case reflect.String:
			s := "s" + strconv.Itoa(g.n)
			if enum, ok := wireEnums[key]; ok {
				s = enum[g.enums[key]%len(enum)]
				g.enums[key]++
			}
			dst.SetString(s)
			return s
		case reflect.Int, reflect.Int64:
			dst.SetInt(int64(g.n))
			return strconv.Itoa(g.n)
		case reflect.Float64:
			x := float64(50+g.n) / 100
			dst.SetFloat(x)
			return strconv.FormatFloat(x, 'g', -1, 64)
		}
		t.Fatalf("no test value for %s (%s)", key, dst.Type())
		return ""
	}
	var parts []string
	for i := 0; i < v.NumField(); i++ {
		key, _, _ := strings.Cut(v.Type().Field(i).Tag.Get("json"), ",")
		f := v.Field(i)
		var text string
		switch f.Kind() {
		case reflect.Struct:
			text = g.fill(t, f)
		case reflect.Slice:
			f.Set(reflect.MakeSlice(f.Type(), 2, 2))
			text = "[" + scalar(key, f.Index(0)) + ", " + scalar(key, f.Index(1)) + "]"
		default:
			text = scalar(key, f)
		}
		parts = append(parts, key+": "+text)
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// diffWire reports each json key whose decoded value differs from the one
// written.
func diffWire(t *testing.T, where string, got, want any) {
	t.Helper()
	g, w := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < w.NumField(); i++ {
		if !reflect.DeepEqual(g.Field(i).Interface(), w.Field(i).Interface()) {
			key, _, _ := strings.Cut(w.Type().Field(i).Tag.Get("json"), ",")
			t.Errorf("%s.%s decoded as %v, want %v", where, key, g.Field(i).Interface(), w.Field(i).Interface())
		}
	}
}

// TestWireCoverage guards the DSL against drifting from the v1 wire: every
// field of client.Workload, client.RunOptions, and client.SweepSpec (its
// nested options included), found by reflection over the json tags, must
// decode under defaults, submit, and submit_sweep. A field added to the wire
// is covered here with no edit.
func TestWireCoverage(t *testing.T) {
	g := &wireGen{enums: map[string]int{}}
	var defW, subW client.Workload
	var defO, subO client.RunOptions
	var sweep client.SweepSpec
	defWText := g.fill(t, reflect.ValueOf(&defW).Elem())
	defOText := g.fill(t, reflect.ValueOf(&defO).Elem())
	subWText := g.fill(t, reflect.ValueOf(&subW).Elem())
	subOText := g.fill(t, reflect.ValueOf(&subO).Elem())
	sweepText := g.fill(t, reflect.ValueOf(&sweep).Elem())

	src := "name: wire\n" +
		"defaults: {workload: " + defWText + ", options: " + defOText + "}\n" +
		"events:\n" +
		"  - submit: {name: a, workload: " + subWText + ", options: " + subOText + "}\n" +
		"  - submit_sweep: {name: s, " + strings.TrimPrefix(sweepText, "{") + "\n"
	s, err := Parse([]byte(src))
	if err != nil {
		t.Fatalf("parse:\n%s\n%v", src, err)
	}
	diffWire(t, "defaults.workload", s.Defaults.Workload, defW)
	diffWire(t, "defaults.options", s.Defaults.Options, defO)
	sub := s.Events[0].Submit
	diffWire(t, "submit.workload", *sub.Workload, subW)
	diffWire(t, "submit.options", *sub.Options, subO)
	diffWire(t, "submit_sweep", s.Events[1].SubmitSweep.SweepSpec, sweep)

	// Every submit field is non-zero, so the merge must take all of them.
	want := runqueue.Spec{Workload: subW, Options: subO}
	if got := sub.spec(s.Defaults); got != want {
		t.Errorf("submit merged onto defaults = %+v, want %+v", got, want)
	}
}
