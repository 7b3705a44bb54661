package server

// The versioned half of the wire surface. Every pdpad role answers GET
// /v1/version with its build info, the API revision it speaks, and which
// role it plays; the fleet coordinator rejects node registrations whose
// revision differs from its own with CodeIncompatibleRevision, so a mixed
// deploy fails loudly at join time instead of corrupting a sweep later.

import (
	"net/http"
	"runtime"
	"runtime/debug"

	"pdpasim/client"
)

// APIRevision is the revision of the v1 wire surface this build speaks.
// Bump it when a change would make a coordinator and a node disagree about
// request or response shapes; nodes with a different revision are refused
// at registration. Revision 2 added POST /v1/runs/reconcile, which a
// recovering coordinator requires every node to serve.
const APIRevision = 2

// Roles a pdpad process can serve in, reported by GET /v1/version.
const (
	RoleStandalone  = "standalone"
	RoleCoordinator = "coordinator"
	RoleNode        = "node"
)

// Version describes this build serving in the given role. Version is the
// main module's build version ("(devel)" for plain go-build trees).
func Version(role string) client.VersionInfo {
	v := client.VersionInfo{
		Service:     "pdpad",
		Version:     "(devel)",
		GoVersion:   runtime.Version(),
		APIRevision: APIRevision,
		Role:        role,
	}
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		v.Version = bi.Main.Version
	}
	return v
}

// WithRole sets the role GET /v1/version reports (default RoleStandalone).
func WithRole(role string) Option {
	return func(s *Server) { s.role = role }
}

func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, Version(s.role))
}
