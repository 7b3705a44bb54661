// Package use calls a backend only through its interface.
package use

// Backend is what Run needs.
type Backend interface{ Serve() string }

// Run serves through b.
func Run(b Backend) string { return b.Serve() }
