//go:build !linux

package main

import "os/exec"

// dieWithParent is a no-op where the kernel has no parent-death signal:
// there only the forwarded SIGTERM and SIGINT stop the children.
func dieWithParent(*exec.Cmd) {}
