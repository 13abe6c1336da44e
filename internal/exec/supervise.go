package exec

import (
	"fmt"
	"time"
)

// CheckpointPolicy configures RunCheckpointed's periodic checkpoint loop.
type CheckpointPolicy struct {
	// Interval between checkpoint triggers (default 1s).
	Interval time.Duration
	// Retain keeps only the newest N committed epochs after each
	// checkpoint; 0 keeps everything.
	Retain int
}

// RunCheckpointed runs the coordinator's subplan under periodic
// checkpoints. The stream never waits on a checkpoint beyond its capture
// phase, and an abandoned epoch (local failure, follower failure, ack
// timeout) does not stop the plan. runErr is the plan's error; chkErr is the
// first checkpoint, commit, or retention failure.
func (dc *DistCoordinator) RunCheckpointed(p CheckpointPolicy) (runErr, chkErr error) {
	stop := make(chan struct{})
	loopErr := make(chan error, 1)
	go func() { loopErr <- dc.checkpointLoop(p, stop) }()
	runErr = dc.g.Run()
	close(stop)
	chkErr = <-loopErr
	dc.g.WaitCheckpoints()
	return runErr, chkErr
}

// checkpointLoop is RunCheckpointed's periodic driver: one checkpoint per
// tick until stop closes, returning the first failure. A trigger that fails
// (not running yet, already stopping, one in flight) skips the tick.
// Retention runs only after a successful commit, so the newest retained
// epoch is always committed.
func (dc *DistCoordinator) checkpointLoop(p CheckpointPolicy, stop <-chan struct{}) (first error) {
	if p.Interval <= 0 {
		p.Interval = time.Second
	}
	note := func(err error) {
		if first == nil {
			first = err
		}
	}
	tick := time.NewTicker(p.Interval)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return first
		case <-tick.C:
		}
		c, err := dc.g.trigger(0, dc.chain)
		if err != nil {
			continue
		}
		select {
		case <-c.done:
		case <-stop:
			return first
		}
		if err := dc.finishEpoch(c, stop); err != nil {
			note(err)
			continue // abandoned: no manifest, no retention this cycle
		}
		// Both logs keep the newest Retain epochs at or below the commit.
		if err := dc.chain.RetainFrom(c.epoch, p.Retain); err != nil {
			note(fmt.Errorf("exec: retention after epoch %d: %w", c.epoch, err))
		}
		if err := dc.log.RetainFrom(c.epoch, p.Retain); err != nil {
			note(fmt.Errorf("exec: manifest retention after epoch %d: %w", c.epoch, err))
		}
	}
}
