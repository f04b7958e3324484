package server

import "agilefpga/internal/wire"

// SetAdmitHook installs s's admission hook (see hookAdmitted) for tests
// outside the package.
func SetAdmitHook(s *Server, hook func(*wire.Request)) { s.hookAdmitted = hook }

// WaitFor is waitFor for tests outside the package.
var WaitFor = waitFor
