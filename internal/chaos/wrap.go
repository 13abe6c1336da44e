package chaos

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/plan"
	"repro/internal/snapshot"
)

// Backend wraps a snapshot.Backend and applies scheduled Put faults by op
// ordinal. The epoch logs call it directly, so an injected failure
// propagates exactly like a real disk fault: the Put returns the error and
// the checkpoint or commit that made it abandons its epoch.
type Backend struct {
	inner  snapshot.Backend
	mu     sync.Mutex
	puts   int
	faults []Fault
	fired  []bool
}

// WrapBackend arms backend faults. With no faults it returns the original
// backend untouched — the zero-cost-when-off contract.
func WrapBackend(b snapshot.Backend, faults []Fault) snapshot.Backend {
	if len(faults) == 0 {
		return b
	}
	return &Backend{inner: b, faults: faults, fired: make([]bool, len(faults))}
}

// Put implements snapshot.Backend, applying at most one scheduled fault.
func (c *Backend) Put(id string, data []byte) error {
	c.mu.Lock()
	n := c.puts
	c.puts++
	var f *Fault
	for i := range c.faults {
		if !c.fired[i] && c.faults[i].N == n {
			c.fired[i] = true
			f = &c.faults[i]
			break
		}
	}
	c.mu.Unlock()
	if f != nil {
		switch f.Kind {
		case FaultFailOp:
			return fmt.Errorf("chaos: injected put failure (op %d, id %q)", n, id)
		case FaultTornWrite:
			keep := len(data) * f.Pct / 100
			if keep < 1 {
				keep = 1
			}
			if keep < len(data) {
				data = data[:keep]
			}
		case FaultBitFlip:
			if len(data) > 0 {
				mut := append([]byte(nil), data...)
				bit := f.Bit % (len(mut) * 8)
				mut[bit/8] ^= 1 << (bit % 8)
				data = mut
			}
		}
	}
	return c.inner.Put(id, data)
}

// Get implements snapshot.Backend.
func (c *Backend) Get(id string) ([]byte, error) { return c.inner.Get(id) }

// List implements snapshot.Backend.
func (c *Backend) List() ([]string, error) { return c.inner.List() }

// Delete implements snapshot.Backend.
func (c *Backend) Delete(id string) error { return c.inner.Delete(id) }

// Conn wraps a net.Conn and applies scheduled write faults by write
// ordinal. Reads pass through untouched — every edge fault is injected on
// the writing side, where one Write call is one flushed unit (a framed
// control message, or a batch flush on the data path).
type Conn struct {
	net.Conn
	mu     sync.Mutex
	writes int
	faults []Fault
	fired  []bool
}

// WrapConn arms connection faults. With no faults it returns the original
// connection untouched.
func WrapConn(c net.Conn, faults []Fault) net.Conn {
	if len(faults) == 0 {
		return c
	}
	return &Conn{Conn: c, faults: faults, fired: make([]bool, len(faults))}
}

// Write implements net.Conn.
func (c *Conn) Write(b []byte) (int, error) {
	c.mu.Lock()
	n := c.writes
	c.writes++
	var f *Fault
	for i := range c.faults {
		ft := &c.faults[i]
		switch ft.Kind {
		case FaultDelay:
			if !(n >= ft.N && n < ft.N+ft.Count) {
				continue
			}
		default:
			if c.fired[i] || ft.N != n {
				continue
			}
			c.fired[i] = true
		}
		f = ft
		break
	}
	c.mu.Unlock()
	if f != nil {
		switch f.Kind {
		case FaultSever:
			_ = c.Conn.Close()
			return 0, fmt.Errorf("chaos: injected sever at write %d", n)
		case FaultDelay:
			time.Sleep(f.Delay)
		case FaultDropWrite:
			return len(b), nil
		}
	}
	return c.Conn.Write(b)
}

// WrapTransport arms connection faults on what a plan.Transport connects:
// ctrl on each control link, data on each data link. With no faults it
// returns the original transport untouched.
func WrapTransport(t plan.Transport, ctrl, data []Fault) plan.Transport {
	if len(ctrl)+len(data) == 0 {
		return t
	}
	return func(part string, links []plan.Link) ([]net.Conn, error) {
		conns, err := t(part, links)
		if err != nil {
			return nil, err
		}
		for i, l := range links {
			faults := ctrl
			if l.Data {
				faults = data
			}
			conns[i] = WrapConn(conns[i], faults)
		}
		return conns, nil
	}
}
