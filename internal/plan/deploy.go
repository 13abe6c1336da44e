package plan

import (
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exec"
	"repro/internal/snapshot"
)

// edgeTimeout bounds each frame write and each idle frame read on a deployed
// cut edge (remote.Sink.WriteTimeout, remote.Source.ReadTimeout): a wedged
// peer surfaces as a node error instead of stalling its part forever.
const edgeTimeout = 30 * time.Second

// Link is one connection between the coordinating part and a follower part:
// the checkpoint control connection, or the data connection of the cut edge
// that feeds the follower.
type Link struct {
	Part string // the follower part
	Data bool
}

// Transport says how the parts of a placed plan reach each other: it returns
// part's connections, one per link and in order. The coordinating part asks
// for a control and a data link per follower part, a follower for its own
// two.
type Transport func(part string, links []Link) ([]net.Conn, error)

// Pipes returns a transport for parts deployed in this process: each link is
// one net.Pipe, whose ends go to the two parts that ask for it. Use a fresh
// one per deployment.
//
//pace:allow-unreached the in-process transport the deployment tests use in place of TCP
func Pipes() Transport {
	var mu sync.Mutex
	ends := map[Link]net.Conn{} // the far end of each pipe one part has taken
	return func(_ string, links []Link) ([]net.Conn, error) {
		mu.Lock()
		defer mu.Unlock()
		conns := make([]net.Conn, len(links))
		for i, l := range links {
			if far, ok := ends[l]; ok {
				conns[i] = far
				delete(ends, l)
			} else {
				conns[i], ends[l] = net.Pipe()
			}
		}
		return conns, nil
	}
}

// TCP returns a transport over TCP on one address: the coordinating part
// listens on addr and accepts every link, and each follower dials it,
// retrying while the coordinator starts. A connection opens with a tag that
// names its link: 'C' (control) or 'D' (data), the length of the follower
// part's name, and the name.
func TCP(addr string) Transport {
	return func(part string, links []Link) (conns []net.Conn, err error) {
		defer func() {
			if err != nil {
				closeAll(conns)
			}
		}()
		if part != Coordinator {
			for _, l := range links {
				c, err := dial(addr, l)
				if err != nil {
					return conns, err
				}
				conns = append(conns, c)
			}
			return conns, nil
		}
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		conns = make([]net.Conn, len(links))
		for range links {
			c, err := ln.Accept()
			if err == nil {
				err = assign(c, links, conns)
			}
			if err != nil {
				return conns, err
			}
		}
		return conns, nil
	}
}

func (l Link) tag() string {
	kind := byte('C')
	if l.Data {
		kind = 'D'
	}
	return string([]byte{kind, byte(len(l.Part))}) + l.Part
}

// assign reads an accepted connection's tag and files it under the link it
// names; it closes a connection whose tag names no link, or one already
// connected.
func assign(c net.Conn, links []Link, conns []net.Conn) error {
	c.SetReadDeadline(time.Now().Add(10 * time.Second))
	defer c.SetReadDeadline(time.Time{})
	tag := make([]byte, 2)
	_, err := io.ReadFull(c, tag)
	if err == nil {
		tag = append(tag, make([]byte, tag[1])...)
		_, err = io.ReadFull(c, tag[2:])
	}
	for i, l := range links {
		if err == nil && l.tag() == string(tag) && conns[i] == nil {
			conns[i] = c
			return nil
		}
	}
	c.Close()
	if err != nil {
		return fmt.Errorf("plan: read connection tag: %w", err)
	}
	return fmt.Errorf("plan: unexpected connection tag %q", tag)
}

// dial connects one link, retrying for a while: the coordinator may still be
// restarting.
func dial(addr string, l Link) (net.Conn, error) {
	for deadline := time.Now().Add(15 * time.Second); ; time.Sleep(50 * time.Millisecond) {
		c, err := net.Dial("tcp", addr)
		if err == nil {
			if _, err = io.WriteString(c, l.tag()); err != nil {
				c.Close()
			}
			return c, err
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("plan: dial %s: %w", addr, err)
		}
	}
}

func closeAll(conns []net.Conn) {
	for _, c := range conns {
		if c != nil {
			c.Close()
		}
	}
}

// Deployment is one part of a placed plan in this process, connected to its
// peers and restored from the newest committed cut. Run it once.
type Deployment struct {
	Restored int64               // the committed epoch restored from; 0 is a cold start
	Degraded []snapshot.Fallback // damaged committed cuts the restore walked past, newest first

	g      *exec.Graph
	chain  *snapshot.Chain
	dc     *exec.DistCoordinator // the coordinating part
	df     *exec.DistFollower    // a follower part
	conns  []net.Conn
	killed atomic.Bool
}

// Deploy readies one part of b to run in this process (DESIGN.md §8.4). It
// connects to the peers over t (nil when the plan has one part), opens the
// part's chain over store — and on the coordinating part the manifest log
// beside it — and restores the newest committed cut: the coordinating part
// picks it (RestoreCommitted) and admits each follower, which restores the
// same epoch (Handshake). The parts of one plan are deployed at once: each
// waits on the others' connections and handshake.
func Deploy(b *Builder, name string, store snapshot.Backend, t Transport) (d *Deployment, err error) {
	if err := b.Err(); err != nil {
		return nil, err
	}
	p := b.part(name)
	if p == nil {
		return nil, fmt.Errorf("plan: deploy: no part %q", name)
	}
	d = &Deployment{g: p.g}
	defer func() {
		if err != nil {
			closeAll(d.conns)
		}
	}()
	var links []Link
	for _, f := range b.parts[1:] {
		if p.src == nil || f == p {
			links = append(links, Link{Part: f.name}, Link{Part: f.name, Data: true})
		}
	}
	if len(links) > 0 {
		if d.conns, err = t(name, links); err != nil {
			return nil, err
		}
	}
	d.chain = snapshot.NewChain(store)
	if p.src != nil {
		p.src.Conn, p.src.ReadTimeout = d.conns[1], edgeTimeout
		d.df = exec.NewDistFollower(p.g, name, d.chain, d.conns[0])
		if _, err = d.df.Handshake(); err != nil {
			return nil, err
		}
		d.Restored = d.df.CommittedEpoch()
		return d, nil
	}
	d.dc = exec.NewDistCoordinator(p.g, name, d.chain, snapshot.NewDistLog(store))
	if _, err = d.dc.RestoreCommitted(); err != nil {
		return nil, err
	}
	d.Restored, d.Degraded = d.dc.CommittedEpoch(), d.dc.Degraded()
	for i, f := range b.parts[1:] {
		f.sink.Conn, f.sink.WriteTimeout = d.conns[2*i+1], edgeTimeout
		if _, err = d.dc.AddFollower(d.conns[2*i]); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// Run runs the part to its end and closes its connections. The coordinating
// part cuts an epoch every p.Interval and abandons one whose acks take longer
// than ackTimeout (0: exec.DistCoordinator's default); every part keeps its
// newest p.Retain committed epochs. chkErr is the first abandoned epoch or
// failed retention, which never stops the stream.
func (d *Deployment) Run(p exec.CheckpointPolicy, ackTimeout time.Duration) (runErr, chkErr error) {
	defer closeAll(d.conns)
	if d.df != nil {
		d.df.Retain = p.Retain
		runErr = d.df.Run()
	} else {
		d.dc.AckTimeout = ackTimeout
		runErr, chkErr = d.dc.RunCheckpointed(p)
	}
	if runErr != nil && d.killed.Load() {
		runErr = exec.ErrKilled // a node may meet the cut links before the kill
	}
	return runErr, chkErr
}

// Committed reports the newest committed epoch this part knows of.
func (d *Deployment) Committed() int64 {
	if d.df != nil {
		return d.df.CommittedEpoch()
	}
	return d.dc.CommittedEpoch()
}

// Persisted reports the newest epoch in this part's chain. A follower knows
// it without the coordinator's commit notices, which are best-effort.
func (d *Deployment) Persisted() int64 {
	epoch, _, _ := d.chain.LatestEpoch()
	return epoch
}

// Kill stops the running part as a crash would: its connections close before
// its nodes stop, so no closing sink sends an end of stream and each peer
// sees the link drop. Run returns exec.ErrKilled.
//
//pace:allow-unreached the in-process crash of the kill-and-restore tests; a supervised process dies by SIGKILL instead (cmd/supervise)
func (d *Deployment) Kill() {
	d.killed.Store(true)
	closeAll(d.conns)
	d.g.Kill()
}
