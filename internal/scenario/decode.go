package scenario

// Strict schema decoding. parseYAML yields a generic tree; decode walks it
// into the scenario's Go types, keyed by their `json` struct tags. The
// workload:, options:, and submit_sweep: stanzas decode straight into the v1
// wire types (client.Workload, client.RunOptions, client.SweepSpec), so a
// field the wire gains is a key the DSL accepts with no edit here. Every
// unknown key is an error naming its path and the valid keys (read from the
// tags), and every value is type-checked. Rules about values and across
// fields live in Scenario.Validate; a scenario that parses is a scenario the
// runner fully understands.

import (
	"encoding"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"time"
)

// Parse parses and validates a scenario document.
func Parse(src []byte) (*Scenario, error) {
	root, err := parseYAML(string(src))
	if err != nil {
		return nil, err
	}
	s := &Scenario{Seed: 1}
	if err := decode(root, "", reflect.ValueOf(s).Elem()); err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// oneOf marks a struct written as a single-key mapping — an event or an
// assertion. The key selects the member; bool members are flags written
// bare (wait_all:) that take no parameters. oneOf names the entry kind for
// error messages.
type oneOf interface{ oneOf() string }

func (Event) oneOf() string     { return "event" }
func (Assertion) oneOf() string { return "assertion" }

var (
	durationType  = reflect.TypeOf(time.Duration(0))
	unmarshalType = reflect.TypeOf((*encoding.TextUnmarshaler)(nil)).Elem()
	oneOfType     = reflect.TypeOf((*oneOf)(nil)).Elem()
)

func failf(format string, args ...any) error {
	return &ParseError{Msg: fmt.Sprintf(format, args...)}
}

// decode stores the YAML value v, found at path, into dst.
func decode(v any, path string, dst reflect.Value) error {
	t := dst.Type()
	switch {
	case t == durationType:
		s, ok := v.(string)
		if !ok {
			return failf("%s must be a duration string like 250ms", path)
		}
		d, err := time.ParseDuration(s)
		if err != nil || d < 0 {
			return failf("%s: bad duration %q", path, s)
		}
		dst.SetInt(int64(d))
		return nil
	case reflect.PointerTo(t).Implements(unmarshalType):
		s, ok := v.(string)
		if !ok {
			return failf("%s must be a %s string", path, strings.ToLower(t.Name()))
		}
		if err := dst.Addr().Interface().(encoding.TextUnmarshaler).UnmarshalText([]byte(s)); err != nil {
			return failf("%s: %v", path, err)
		}
		return nil
	}
	switch t.Kind() {
	case reflect.Pointer:
		p := reflect.New(t.Elem())
		if err := decode(v, path, p.Elem()); err != nil {
			return err
		}
		dst.Set(p)
	case reflect.Struct:
		return decodeStruct(v, path, dst)
	case reflect.Slice:
		if v == nil {
			return nil
		}
		seq, ok := v.([]any)
		if !ok {
			return failf("%s must be a sequence", path)
		}
		out := reflect.MakeSlice(t, len(seq), len(seq))
		for i, ev := range seq {
			if err := decode(ev, fmt.Sprintf("%s[%d]", path, i), out.Index(i)); err != nil {
				return err
			}
		}
		dst.Set(out)
	case reflect.String:
		s, ok := v.(string)
		if !ok {
			return failf("%s must be a string", path)
		}
		dst.SetString(s)
	case reflect.Int, reflect.Int64:
		n, ok := v.(int64)
		if !ok {
			return failf("%s must be an integer", path)
		}
		dst.SetInt(n)
	case reflect.Float64:
		switch n := v.(type) {
		case int64:
			dst.SetFloat(float64(n))
		case float64:
			dst.SetFloat(n)
		default:
			return failf("%s must be a number", path)
		}
	case reflect.Bool:
		b, ok := v.(bool)
		if !ok {
			return failf("%s must be true or false", path)
		}
		dst.SetBool(b)
	default:
		return failf("%s: the schema has no decoding for %s", path, t)
	}
	return nil
}

// decodeStruct decodes a mapping into dst's tagged fields.
func decodeStruct(v any, path string, dst reflect.Value) error {
	where := path
	if where == "" {
		where = "document"
	}
	m, ok := v.(map[string]any)
	if !ok && v != nil {
		return failf("%s must be a mapping", where)
	}
	fields := keysOf(dst.Type())
	valid := make([]string, len(fields))
	for i, f := range fields {
		valid[i] = f.name
	}
	var kind string
	if dst.Type().Implements(oneOfType) {
		kind = dst.Interface().(oneOf).oneOf()
		if len(m) != 1 {
			return failf("%s must have exactly one %s key (%s)", where, kind, strings.Join(valid, ", "))
		}
	}
	var extra []string
	for k := range m {
		if !slices.Contains(valid, k) {
			extra = append(extra, k)
		}
	}
	if len(extra) > 0 {
		noun := "key"
		if kind != "" {
			noun = kind
		}
		return failf("%s: unknown %s %q (valid: %s)", where, noun, slices.Min(extra), strings.Join(valid, ", "))
	}
	for _, f := range fields {
		fv, ok := m[f.name]
		if !ok && !f.hasDefault {
			continue
		}
		if !ok {
			fv = plainScalar(f.def)
		}
		fpath := f.name
		if path != "" {
			fpath = path + "." + f.name
		}
		field := dst.FieldByIndex(f.index)
		if kind != "" && field.Kind() == reflect.Bool {
			if body, isMap := fv.(map[string]any); fv != nil && (!isMap || len(body) != 0) {
				return failf("%s takes no parameters", fpath)
			}
			field.SetBool(true)
			continue
		}
		if err := decode(fv, fpath, field); err != nil {
			return err
		}
	}
	return nil
}

// key is one schema key: a json-tagged field, found by index so fields of
// embedded structs (submit_sweep's client.SweepSpec) decode in place. A
// `default` tag is decoded, as if written in the file, when the key is
// absent.
type key struct {
	name       string
	index      []int
	def        string
	hasDefault bool
}

func keysOf(t reflect.Type) []key {
	var keys []key
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		switch {
		case f.Anonymous && name == "" && f.Type.Kind() == reflect.Struct:
			for _, k := range keysOf(f.Type) {
				k.index = append([]int{i}, k.index...)
				keys = append(keys, k)
			}
		case f.IsExported() && name != "" && name != "-":
			def, ok := f.Tag.Lookup("default")
			keys = append(keys, key{name, f.Index, def, ok})
		}
	}
	return keys
}
