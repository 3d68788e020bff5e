// Package atomics is golden-file input for dttlint's atomics rule: fields
// accessed both through sync/atomic and plainly, and the //dtt:guards
// annotation that licenses the plain side when a named mutex is held.
package atomics

import (
	"sync"
	"sync/atomic"
)

// counter mixes atomic and plain access with no declared guard: the plain
// read races the atomic increments.
type counter struct {
	n int64
}

func (c *counter) Inc() { atomic.AddInt64(&c.n, 1) }

func (c *counter) Read() int64 { return c.n } // want: atomics

// gauge declares its guard and every plain access holds it: clean. The
// field is never touched atomically — a guarded field is checked as
// documentation either way.
type gauge struct {
	mu sync.Mutex
	v  int64 //dtt:guards mu
}

func (g *gauge) Set(v int64) {
	g.mu.Lock()
	g.v = v
	g.mu.Unlock()
}

func (g *gauge) Get() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

// NewGauge writes the guarded field without the lock, legally: a value
// still under construction is not shared yet.
func NewGauge(v int64) *gauge {
	return &gauge{v: v}
}

// leaky declares the same guard but one accessor skips the lock.
type leaky struct {
	mu sync.Mutex
	v  int64 //dtt:guards mu
}

func (l *leaky) Good() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.v
}

func (l *leaky) Bad() int64 { return l.v } // want: atomics

// DriveLeaky gives Bad a lock-free call site, so entry-held inference
// cannot assume a caller holds the guard for it.
func DriveLeaky(l *leaky) int64 { return l.Bad() }

// locked relies on its caller's lock — the "caller holds l.mu" contract,
// inferred from the call sites rather than trusted from a comment. The read
// is five calls below the frame taking the lock; inference proves one link a
// round, so it must run to a fixpoint, not for a fixed number of rounds.
func (l *leaky) locked() int64  { return l.locked2() }
func (l *leaky) locked2() int64 { return l.locked3() }
func (l *leaky) locked3() int64 { return l.locked4() }
func (l *leaky) locked4() int64 { return l.locked5() }
func (l *leaky) locked5() int64 { return l.v }

func (l *leaky) ViaLocked() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.locked()
}

// typo's annotation names a sibling that is not a mutex: malformed,
// reported at the field.
type typo struct {
	flag bool
	// want: +1:atomics
	v int64 //dtt:guards flag
}

func (t *typo) Set(v int64) { t.v = v }

// classed is mem.Buffer's shape: the words are stored atomically while
// readers may be attached (shared) and plainly while one goroutine owns
// them. The rule cannot see the ownership hand-off that makes the plain arm
// safe, so the read and the write are both reported; the real Buffer.swap
// carries a //dtt:ignore naming the class and the join, and without one
// the shape stays a finding.
type classed struct {
	data   []uint64
	shared bool
}

func (c *classed) swap(i int, v uint64) uint64 {
	var old uint64
	if c.shared {
		old = atomic.SwapUint64(&c.data[i], v)
	} else {
		old, c.data[i] = c.data[i], v // want: atomics atomics
	}
	return old
}

// pool is the run bracket's shape: sweep is entered with mu held by its one
// caller, drops it around each job and takes it back, and leaves its loop —
// which has no condition — by a break, still holding mu. Run's accesses
// after the call and settle's (called there) are guarded — Drive gives Run a
// call site, so its entry is known to hold nothing; a walk that exited
// the loop with the state from before it, empty in sweep's own summary, or
// lost the break's state, would report both.
type pool struct {
	mu   sync.Mutex
	jobs []func() //dtt:guards mu
	done int      //dtt:guards mu
}

func (p *pool) sweep() {
loop:
	for {
		job := p.jobs[0]
		p.jobs = p.jobs[1:]
		p.mu.Unlock()
		job()
		p.mu.Lock()
		p.done++
		switch len(p.jobs) {
		case 0:
			break loop
		}
	}
}

func (p *pool) settle() { p.done-- }

func (p *pool) Run(job func()) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.jobs = append(p.jobs, job)
	p.sweep()
	p.settle()
	return p.done
}

func Drive(p *pool) int { return p.Run(func() {}) }

// maybeSweep waits on its caller's lock only when there is work: a
// condition wait on one path, none on the other. It is a condition wait all
// the same, so Flush's accesses after the call are guarded; a walk that
// joined the two paths' held sets would drop the caller's lock there.
func (p *pool) maybeSweep() {
	if len(p.jobs) > 0 {
		p.sweep()
	}
}

func (p *pool) Flush() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.maybeSweep()
	p.settle()
	return p.done
}

// broken releases its caller's lock and panics, so the lock is not held
// while the panic unwinds. No path returns: check's access after the call
// is unreachable, and the caller's lock is still held on every path that
// gets there — Check's own accesses are guarded.
func (p *pool) broken() {
	p.mu.Unlock()
	panic("pool: broken invariant")
}

func (p *pool) check() {
	if p.done < 0 {
		p.broken()
	}
	p.done++
}

func (p *pool) Check() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.check()
	return p.done
}
