// Package lib holds one identifier of each kind the checker must judge.
package lib

import "errors"

// TestOnly has no caller outside lib_test.go, so the checker reports it.
func TestOnly() int { return 1 }

// Used is called from main.
func Used() int { return 2 }

// Kept has no caller at all; the fixture's allow-list keeps it.
func Kept() {}

// Fault's Transient is reached only through an anonymous interface.
type Fault struct{}

func (Fault) Error() string   { return "fault" }
func (Fault) Transient() bool { return true }

// ErrBase is what a Wrapped error matches.
var ErrBase = errors.New("base")

// Wrapped's Is and Unwrap serve errors.Is and errors.Unwrap.
type Wrapped struct{ err error }

func (w *Wrapped) Error() string        { return "wrapped" }
func (w *Wrapped) Is(target error) bool { return target == ErrBase }
func (w *Wrapped) Unwrap() error        { return w.err }

// Index's Serve is promoted into Server, which satisfies use.Backend.
type Index struct{}

func (*Index) Serve() string { return "served" }

// Server embeds Index.
type Server struct{ Index }
