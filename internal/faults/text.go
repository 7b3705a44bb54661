package faults

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// This file gives rules a canonical text form so the same syntax configures
// fault injection everywhere: the scenario DSL's faults: list, the pdpad
// -inject flag, and test helpers. The grammar of one rule is
//
//	<site>:<kind> [after=N] [count=N] [prob=F] [delay=DUR] [transient] [err=MSG]
//
// where <site> is a Site name (worker_start, worker_finish, cache_hit,
// http_request), <kind> is panic, hang, delay, or error, DUR is a Go
// duration (30ms), and MSG may be Go-quoted to contain spaces. String and
// ParseRule are inverses up to canonical spelling: for any rule r,
// ParseRule(r.String()) stringifies back to r.String().

var kindNames = map[Kind]string{
	KindPanic: "panic",
	KindHang:  "hang",
	KindDelay: "delay",
	KindError: "error",
}

// String returns the kind's text name ("panic", "hang", "delay", "error").
func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// ParseSite converts a site name (as produced by Site.String) back to the
// Site.
func ParseSite(s string) (Site, error) {
	for i, n := range siteNames {
		if n == s {
			return Site(i), nil
		}
	}
	return 0, fmt.Errorf("faults: unknown site %q (valid: %s)", s, strings.Join(siteNames[:], ", "))
}

// UnmarshalText parses a site name, so a Site decodes from its text form.
func (s *Site) UnmarshalText(text []byte) error {
	v, err := ParseSite(string(text))
	if err != nil {
		return err
	}
	*s = v
	return nil
}

// ParseKind converts a kind name back to the Kind.
func ParseKind(s string) (Kind, error) {
	for k, n := range kindNames {
		if n == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("faults: unknown fault kind %q (valid: panic, hang, delay, error)", s)
}

// String renders the rule in its canonical text form, parseable by
// ParseRule. Zero-valued options are omitted; option order is fixed so equal
// rules render identically.
func (r Rule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:%s", r.Site, r.Kind)
	if r.After > 0 {
		fmt.Fprintf(&b, " after=%d", r.After)
	}
	if r.Count > 0 {
		fmt.Fprintf(&b, " count=%d", r.Count)
	}
	if r.Prob > 0 {
		fmt.Fprintf(&b, " prob=%s", strconv.FormatFloat(r.Prob, 'g', -1, 64))
	}
	if r.Delay > 0 {
		fmt.Fprintf(&b, " delay=%s", r.Delay)
	}
	if r.Transient {
		b.WriteString(" transient")
	}
	if r.Err != nil {
		fmt.Fprintf(&b, " err=%q", r.Err.Error())
	}
	return b.String()
}

// ParseRule parses one rule from its text form. An err=MSG option yields a
// fresh errors.New(MSG): the message round-trips, error identity does not —
// errors.Is against the original value only works for rules built in Go.
func ParseRule(s string) (Rule, error) {
	toks, err := tokenize(s)
	if err != nil {
		return Rule{}, err
	}
	if len(toks) == 0 {
		return Rule{}, errors.New("faults: empty rule")
	}
	site, kind, ok := strings.Cut(toks[0], ":")
	if !ok {
		return Rule{}, fmt.Errorf("faults: rule %q must start with <site>:<kind>", s)
	}
	var r Rule
	if r.Site, err = ParseSite(site); err != nil {
		return Rule{}, err
	}
	if r.Kind, err = ParseKind(kind); err != nil {
		return Rule{}, err
	}
	for _, tok := range toks[1:] {
		key, val, hasVal := strings.Cut(tok, "=")
		switch key {
		case "after", "count":
			if !hasVal {
				return Rule{}, fmt.Errorf("faults: option %q needs a value", key)
			}
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return Rule{}, fmt.Errorf("faults: bad %s=%q (want a non-negative integer)", key, val)
			}
			if key == "after" {
				r.After = n
			} else {
				r.Count = n
			}
		case "prob":
			p, err := strconv.ParseFloat(val, 64)
			if err != nil || !hasVal || p < 0 || p > 1 {
				return Rule{}, fmt.Errorf("faults: bad prob=%q (want a probability in [0,1])", val)
			}
			r.Prob = p
		case "delay":
			d, err := time.ParseDuration(val)
			if err != nil || !hasVal || d < 0 {
				return Rule{}, fmt.Errorf("faults: bad delay=%q (want a non-negative Go duration)", val)
			}
			r.Delay = d
		case "transient":
			if hasVal {
				return Rule{}, fmt.Errorf("faults: option transient takes no value")
			}
			r.Transient = true
		case "err":
			msg := val
			if strings.HasPrefix(val, `"`) {
				if msg, err = strconv.Unquote(val); err != nil {
					return Rule{}, fmt.Errorf("faults: bad err=%s: %v", val, err)
				}
			}
			if !hasVal || msg == "" {
				return Rule{}, fmt.Errorf("faults: option err needs a non-empty message")
			}
			r.Err = errors.New(msg)
		default:
			return Rule{}, fmt.Errorf("faults: unknown rule option %q (valid: after, count, prob, delay, transient, err)", key)
		}
	}
	if r.Err != nil && r.Kind != KindError {
		return Rule{}, fmt.Errorf("faults: err= only applies to error rules, not %s", r.Kind)
	}
	if r.Transient && r.Kind != KindError {
		return Rule{}, fmt.Errorf("faults: transient only applies to error rules, not %s", r.Kind)
	}
	return r, nil
}

// UnmarshalText parses the rule's text form (see ParseRule), so a Rule
// decodes from a string.
func (r *Rule) UnmarshalText(text []byte) error {
	v, err := ParseRule(string(text))
	if err != nil {
		return err
	}
	*r = v
	return nil
}

// ParseRules parses a list of rules separated by semicolons or newlines,
// skipping empty entries.
func ParseRules(s string) ([]Rule, error) {
	var rules []Rule
	for _, part := range strings.FieldsFunc(s, func(r rune) bool { return r == ';' || r == '\n' }) {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		r, err := ParseRule(part)
		if err != nil {
			return nil, err
		}
		rules = append(rules, r)
	}
	return rules, nil
}

// tokenize splits a rule on spaces, keeping double-quoted spans (with Go
// escapes) inside one token so err="two words" survives.
func tokenize(s string) ([]string, error) {
	var toks []string
	var cur strings.Builder
	inQuote := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case inQuote:
			cur.WriteByte(c)
			if c == '\\' && i+1 < len(s) {
				i++
				cur.WriteByte(s[i])
			} else if c == '"' {
				inQuote = false
			}
		case c == '"':
			cur.WriteByte(c)
			inQuote = true
		case c == ' ' || c == '\t':
			if cur.Len() > 0 {
				toks = append(toks, cur.String())
				cur.Reset()
			}
		default:
			cur.WriteByte(c)
		}
	}
	if inQuote {
		return nil, fmt.Errorf("faults: unterminated quote in rule %q", s)
	}
	if cur.Len() > 0 {
		toks = append(toks, cur.String())
	}
	return toks, nil
}
