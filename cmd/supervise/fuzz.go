// The -fuzz mode: seeded fault-schedule fuzzing of the supervised runtime.
//
// For each seed (and each mode: single-process and -dist) the driver
// derives a deterministic fault schedule (internal/chaos.Generate), runs a
// full supervised crash run under it in a subprocess, and asserts the
// robustness invariants:
//
//  1. crash ≡ clean — every RESULTS digest the chaos run prints equals the
//     clean (fault-free) run's digest, computed once per mode up front;
//  2. chain-aware restorability — after the run, every committed
//     DistManifest is restored and replayed to completion in-process, and
//     each replay's digest must again equal the clean digest. An epoch whose
//     snapshot the schedule corrupted may be skipped (that is the
//     degradation contract); a corrupt snapshot with no scheduled
//     corruption fault is a bug.
//
// A failure prints the seed and its schedule; re-running with the same
// seed replays the same schedule — one-command reproduction.
package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/snapshot"
)

// resultsRe extracts canonical digest lines from a supervised run's output.
var resultsRe = regexp.MustCompile(`(?m)^RESULTS .*$`)

// fuzzRunTimeout bounds one supervised subprocess — generous, because a
// schedule can stack several kills with restart backoff between them.
const fuzzRunTimeout = 5 * time.Minute

var modeName = map[bool]string{false: "single", true: "dist"}

// runFuzz drives -fuzz: clean baselines first, then the seed loop.
func runFuzz(o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	work := o.dir
	keep := work != ""
	if work == "" {
		if work, err = os.MkdirTemp("", "supervise-fuzz-"); err != nil {
			return err
		}
	}
	var deadline time.Time
	if o.fuzzTime > 0 {
		deadline = time.Now().Add(o.fuzzTime)
	}
	modes := []bool{false, true}

	// The workload is identical across seeds, so each mode's clean digest
	// is computed once and reused as the equality witness for every run
	// and every replayed epoch.
	clean := map[bool]string{}
	for _, dist := range modes {
		out, err := superviseRun(self, o, filepath.Join(work, "clean-"+modeName[dist]), 0, dist)
		if err != nil {
			return fmt.Errorf("fuzz: clean %s run: %w\n%s", modeName[dist], err, out)
		}
		res := resultsRe.FindAllString(out, -1)
		if len(res) != 1 {
			return fmt.Errorf("fuzz: clean %s run printed %d RESULTS lines:\n%s", modeName[dist], len(res), out)
		}
		clean[dist] = res[0]
		fmt.Printf("FUZZ clean %s digest: %s\n", modeName[dist], res[0])
	}

	ran := 0
	for s := o.seed; s < o.seed+uint64(o.fuzzSeeds); s++ {
		for _, dist := range modes {
			if !deadline.IsZero() && time.Now().After(deadline) {
				fmt.Printf("FUZZ stopping: time budget %v spent after %d runs\n", o.fuzzTime, ran)
				if !keep {
					os.RemoveAll(work)
				}
				return nil
			}
			if err := fuzzOne(self, o, work, s, dist, clean[dist]); err != nil {
				return err
			}
			ran++
		}
	}
	fmt.Printf("FUZZ PASS %d runs (%d seeds x %d modes, base seed %d)\n", ran, o.fuzzSeeds, len(modes), o.seed)
	if !keep {
		os.RemoveAll(work)
	}
	return nil
}

// fuzzOne runs one seeded schedule in one mode and verifies both
// invariants. On failure it prints the seed, the schedule, and the
// reproduction command before returning the error.
func fuzzOne(self string, o options, work string, seed uint64, dist bool, want string) error {
	p := chaos.Generate(seed, dist)
	dir := filepath.Join(work, fmt.Sprintf("%s-seed-%d", modeName[dist], seed))
	fail := func(format string, args ...any) error {
		fmt.Printf("FUZZ FAIL seed=%d mode=%s\n  schedule: %s\n  repro: supervise %s\n",
			seed, modeName[dist], p, strings.Join(superviseArgs(o, "<fresh-dir>", seed, dist), " "))
		return fmt.Errorf("fuzz: seed %d (%s): %s", seed, modeName[dist], fmt.Sprintf(format, args...))
	}
	out, err := superviseRun(self, o, dir, seed, dist)
	if err != nil {
		return fail("supervised run failed: %v\n%s", err, out)
	}
	res := resultsRe.FindAllString(out, -1)
	if len(res) == 0 {
		return fail("run printed no RESULTS line:\n%s", out)
	}
	// A kill can land between a RESULTS print and process exit, so a
	// restarted incarnation may legitimately print a second line — every
	// one of them must equal the clean digest.
	for _, r := range res {
		if r != want {
			return fail("digest diverged: %q != clean %q\n%s", r, want, out)
		}
	}
	verified, skipped, err := verifyCommitted(o, dir, dist, want, p)
	if err != nil {
		return fail("chain verification: %v", err)
	}
	fmt.Printf("FUZZ PASS seed=%d mode=%s results=%d verified=%d skipped=%d [%s]\n",
		seed, modeName[dist], len(res), verified, skipped, p)
	return nil
}

// superviseArgs assembles the supervisor invocation for one chaos run —
// also what a failure prints as the repro command.
func superviseArgs(o options, dir string, seed uint64, dist bool) []string {
	o.dir, o.chaosSeed, o.dist = dir, seed, dist
	return append(o.args(), "-max-restarts", fmt.Sprint(o.maxRestarts))
}

// superviseRun executes one supervised run (seed 0 = clean) with a
// watchdog, returning its combined output.
func superviseRun(self string, o options, dir string, seed uint64, dist bool) (string, error) {
	ctx, cancel := context.WithTimeout(context.Background(), fuzzRunTimeout)
	defer cancel()
	out, err := exec.CommandContext(ctx, self, superviseArgs(o, dir, seed, dist)...).CombinedOutput()
	if ctx.Err() != nil {
		return string(out), fmt.Errorf("run exceeded %v watchdog", fuzzRunTimeout)
	}
	return string(out), err
}

// verifyCommitted is the chain-aware check: every committed manifest
// restores each part of the plan at its epoch and replays to the clean
// digest. The first part is the coordinating one: its backend holds the
// manifest log beside its chain, and it is where schedules aim their
// corruption faults, so only there is a corrupt manifest or snapshot
// skippable — and only when the schedule injected one.
func verifyCommitted(o options, dir string, dist bool, want string, p *chaos.Plan) (verified, skipped int, err error) {
	o.dist = dist
	b, _ := buildPlan(o)
	parts := b.Parts()
	store, err := snapshot.NewDir(filepath.Join(dir, parts[0]))
	if err != nil {
		return 0, 0, err
	}
	log := snapshot.NewDistLog(store)
	epochs, err := log.Epochs()
	if err != nil {
		return 0, 0, err
	}
	if len(epochs) == 0 {
		// A dropped follower ack stalls each affected epoch for the full
		// ack timeout; on a short run that can abandon every epoch — the
		// results were still exact, there is just nothing to replay.
		if p.StarvesCommits() {
			return 0, 0, nil
		}
		return 0, 0, fmt.Errorf("no committed manifests to verify")
	}
	for _, ep := range epochs {
		m, err := log.At(ep)
		var line string
		if err == nil && len(m.Parts) != len(parts) {
			err = fmt.Errorf("committed with %d parts, the plan has %d", len(m.Parts), len(parts))
		}
		if err == nil {
			line, err = replay(o, dir, ep)
		}
		if errors.Is(err, snapshot.ErrCorruptSnapshot) && p.SchedulesCorruption(parts[0]) {
			skipped++
			continue
		}
		if err != nil {
			return verified, skipped, fmt.Errorf("manifest %d: %w", ep, err)
		}
		if line != want {
			return verified, skipped, fmt.Errorf("replay of manifest %d diverged: %q != clean %q", ep, line, want)
		}
		verified++
	}
	return verified, skipped, nil
}

// replay rebuilds the plan, restores each part from its chain in
// dir/<part> at one committed epoch (followers checkpoint at the
// coordinator's epoch number), and runs the placed plan to completion
// in-process — every part at once, the cut over a pipe, no checkpoints. It
// returns the sink's digest line.
func replay(o options, dir string, epoch int64) (string, error) {
	b, sink := buildPlan(o)
	if err := b.Err(); err != nil {
		return "", err
	}
	for _, part := range b.Parts() {
		store, err := snapshot.NewDir(filepath.Join(dir, part))
		var snap *snapshot.Snapshot
		if err == nil {
			snap, err = snapshot.NewChain(store).ChainFor(epoch)
		}
		if err == nil {
			err = b.GraphOf(part).RestoreChain(snap)
		}
		if err != nil {
			return "", fmt.Errorf("part %s epoch %d: %w", part, epoch, err)
		}
	}
	if err := b.Run(); err != nil {
		return "", fmt.Errorf("replay from epoch %d: %w", epoch, err)
	}
	return digestLine(sink), nil
}
