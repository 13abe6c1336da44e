// Package fields: a field is set by assignment, increment, taking its
// address, or calling a pointer method on it; a field none of them
// touches is never set.
package fields

// Config's fields are set in every way but a literal.
type Config struct {
	Assigned int
	Counted  int
	Pointed  int
	Grown    Buf
	Never    int // want "field Config.Never is never set by non-test code"
}

// Buf grows in place.
type Buf struct{ n int }

// Grow has a pointer receiver: calling it on a field takes its address.
func (b *Buf) Grow() { b.n++ }

// Read reads a config.
func Read(c Config) int { return c.Never + c.Counted + c.Assigned + c.Pointed + c.Grown.n }

func init() {
	var c Config
	c.Assigned = Read(c)
	c.Counted++
	p := &c.Pointed
	*p = 3
	c.Grown.Grow()
	_ = Read(c)
}
