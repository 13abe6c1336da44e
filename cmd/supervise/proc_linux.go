package main

import (
	"os/exec"
	"syscall"
)

// dieWithParent has the kernel SIGKILL c's process when the supervisor
// that starts it dies, by a signal it cannot catch included.
func dieWithParent(c *exec.Cmd) {
	c.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
