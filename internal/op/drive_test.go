package op

import (
	"fmt"
	"testing"

	"repro/internal/exec"
	"repro/internal/punct"
	"repro/internal/queue"
	"repro/internal/stream"
)

// inRun is t inside an exec.Call step, which runs on the plan's goroutine: a
// fatal check panics there, and the panic ends the run with the check's
// message as the run's error.
type inRun struct{ testing.TB }

func (r inRun) Fatal(args ...any)                 { panic(fmt.Sprint(args...)) }
func (r inRun) Fatalf(format string, args ...any) { panic(fmt.Sprintf(format, args...)) }

// puncts is the punctuation c recorded, in arrival order.
func puncts(c *exec.Collector) []punct.Embedded {
	var es []punct.Embedded
	for _, it := range c.Items() {
		if it.Kind == queue.ItemPunct {
			es = append(es, *it.Punct)
		}
	}
	return es
}

// outAt is a step that copies what output 0 has recorded so far into got.
func outAt(got *[]stream.Tuple) exec.Script {
	return exec.Call(func(tr *exec.Trace) { *got = tr.Out[0].Tuples() })
}
