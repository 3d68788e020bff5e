// Package sanitize is the DTT protocol sanitizer: an opt-in happens-before
// checker for the synchronisation discipline the paper imposes on
// data-triggered programs. The discipline replaces control-flow ordering
// with tstore/twait ordering, so misuse — reading a support thread's output
// without the matching Wait, two threads touching one word with no
// happens-before edge, a tcancel racing a running instance — produces silent
// wrong answers rather than crashes. The checker makes those misuses loud.
//
// # Model
//
// Execution is modelled as a set of agents: agent 0 is the main thread (any
// goroutine not currently executing a support-thread body), and each
// registered support thread t is agent t+1 — the runtime's
// one-instance-at-a-time rule serialises all instances of one thread, so a
// single agent (and a single clock) per thread is sound. Each agent carries
// a vector clock; happens-before edges are created only by the protocol's
// own operations:
//
//   - a triggering store joins the storer's clock into the release clock of
//     every thread it fires (the instance will observe the store);
//   - a support-thread instance joins its thread's release clock at entry;
//   - instance completion publishes the thread's clock;
//   - Wait(t) joins thread t's published clock into the waiter;
//   - Barrier joins every thread's published clock into the waiter.
//
// Deliberately absent: completing an instance inline (deferred backend,
// queue-overflow inline run) does NOT join back into the enclosing agent.
// Those runs are synchronous by accident of backend; the protocol still
// requires a Wait before the output is read, and the checker enforces the
// protocol, not the luck of the schedule.
//
// Every word write that changes memory is stamped (agent, tick); a silent
// store publishes nothing, and the runtime does not report it. A read or
// write of a word whose last writer is another agent, with no
// happens-before edge covering that write, is a violation. Cancel of a
// thread with a running instance is a violation.
//
// The checker observes the schedule that actually ran; like any dynamic
// race detector it cannot flag orderings it did not see. The seeded
// scheduler backend (internal/sched) exists to drive many orderings
// through it reproducibly.
package sanitize

import (
	"fmt"
	"sync"

	"dtt/internal/mem"
	"dtt/internal/queue"
)

// Mode selects how much checking a runtime performs.
type Mode int

const (
	// CheckOff disables the sanitizer; accesses pay a nil-check only.
	CheckOff Mode = iota
	// CheckStrict enables full happens-before checking.
	CheckStrict
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case CheckOff:
		return "off"
	case CheckStrict:
		return "strict"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Kind classifies a protocol violation.
type Kind int

const (
	// KindReadBeforeWait is a main-thread read of a word written by a
	// support thread with no intervening Wait/Barrier.
	KindReadBeforeWait Kind = iota
	// KindWriteRace is a main-thread write to a word written by a support
	// thread with no intervening Wait/Barrier.
	KindWriteRace
	// KindCancelRace is a Cancel issued while an instance of the thread is
	// executing.
	KindCancelRace
	// KindCrossThread is an unsynchronised access between two support
	// threads, or a support-thread read of main-thread data written after
	// the release point.
	KindCrossThread
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case KindReadBeforeWait:
		return "read-before-wait"
	case KindWriteRace:
		return "write-race"
	case KindCancelRace:
		return "cancel-race"
	case KindCrossThread:
		return "cross-thread"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Violation is one detected protocol violation, with enough context to act
// on: the offending access's region and word offset, and both parties.
type Violation struct {
	Kind Kind
	// Thread is the support thread on the "other side" of the violation:
	// the writer whose output was read too early, or the cancel target.
	Thread queue.ThreadID
	// ThreadName is Thread's registration name.
	ThreadName string
	// Accessor names the agent that performed the offending access:
	// "main" or the accessing support thread's name.
	Accessor string
	// Region and Index locate the word involved (empty/-1 for
	// KindCancelRace, which has no word).
	Region string
	Index  int
	// Addr is the word's logical address.
	Addr mem.Addr
}

// String formats the violation as a one-line actionable diagnostic.
func (v Violation) String() string {
	switch v.Kind {
	case KindReadBeforeWait:
		return fmt.Sprintf("read-before-wait: main read %s[%d] (addr %#x) written by support thread %d (%q) with no intervening Wait/Barrier",
			v.Region, v.Index, v.Addr, v.Thread, v.ThreadName)
	case KindWriteRace:
		return fmt.Sprintf("write-race: main wrote %s[%d] (addr %#x) last written by support thread %d (%q) with no intervening Wait/Barrier",
			v.Region, v.Index, v.Addr, v.Thread, v.ThreadName)
	case KindCancelRace:
		return fmt.Sprintf("cancel-race: Cancel(%d) (%q) while an instance is running; the instance's effects are undefined",
			v.Thread, v.ThreadName)
	case KindCrossThread:
		return fmt.Sprintf("cross-thread: %s accessed %s[%d] (addr %#x) last written by %d (%q) with no happens-before edge",
			v.Accessor, v.Region, v.Index, v.Addr, v.Thread, v.ThreadName)
	}
	return fmt.Sprintf("violation kind %d thread %d %s[%d]", v.Kind, v.Thread, v.Region, v.Index)
}

// mainAgent is the agent id of the main thread; support thread t is agent
// int(t)+1.
const mainAgent = 0

// vclock is a grow-on-demand vector clock over agent ids.
type vclock []uint64

func (v vclock) at(agent int) uint64 {
	if agent < len(v) {
		return v[agent]
	}
	return 0
}

func (v *vclock) bump(agent int) uint64 {
	v.grow(agent + 1)
	(*v)[agent]++
	return (*v)[agent]
}

func (v *vclock) grow(n int) {
	if len(*v) < n {
		*v = append(*v, make(vclock, n-len(*v))...)
	}
}

// join folds o into v component-wise (v = max(v, o)).
func (v *vclock) join(o vclock) {
	v.grow(len(o))
	for i, c := range o {
		if c > (*v)[i] {
			(*v)[i] = c
		}
	}
}

type writeRec struct {
	agent int
	tick  uint64
}

// maxViolations bounds the retained diagnostics; Total keeps counting past
// it so a hot loop of violations cannot eat memory.
const maxViolations = 64

// Checker is the sanitizer state for one runtime. All methods are safe for
// concurrent use; the checker carries its own mutex and must never call
// back into the runtime (lock ordering: runtime locks may be held around
// checker calls, never the reverse).
type Checker struct {
	mu sync.Mutex

	// clocks[a] is agent a's vector clock.
	clocks []vclock
	// release[t] accumulates the clocks of every triggering store that
	// fired thread t; an instance of t joins it at entry. Join-only: older
	// triggers genuinely happen before later instances.
	release []vclock
	// published[t] accumulates the clock of every completed instance of t;
	// Wait(t)/Barrier join it into the waiter.
	published []vclock
	// names[t] is thread t's registration name.
	names []string
	// stack[g] is the nest of support threads executing on goroutine g
	// (inline overflow runs recurse, so it is a stack, not a single id).
	stack map[uint64][]queue.ThreadID
	// writesLazy stamps each written word with its last writer, keyed by
	// 4 KiB address bucket and then word address; nil until the first
	// checked write (nil-map reads are legal and cheap). Bucketing exists
	// for ReleaseRange: a region release drops only the stamps of the
	// buckets its range touches, instead of scanning every stamped word
	// ever written — per-connection namespaces in the serve plane release
	// a range on every session close.
	writesLazy map[mem.Addr]map[mem.Addr]writeRec

	violations []Violation
	total      int64
}

// NewChecker returns an empty checker.
func NewChecker() *Checker {
	return &Checker{stack: make(map[uint64][]queue.ThreadID)}
}

// Violations returns a copy of the retained violations, in detection order.
func (c *Checker) Violations() []Violation {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Violation, len(c.violations))
	copy(out, c.violations)
	return out
}

// Total returns the number of violations detected, including any dropped
// beyond the retention cap.
func (c *Checker) Total() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total
}

// Err returns nil if the run was clean, or an error carrying the first
// violation and the total count.
func (c *Checker) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.total == 0 {
		return nil
	}
	return fmt.Errorf("sanitize: %d protocol violation(s); first: %s", c.total, c.violations[0])
}

func (c *Checker) record(v Violation) {
	c.total++
	if len(c.violations) < maxViolations {
		c.violations = append(c.violations, v)
	}
}

// agentLocked resolves the agent executing on goroutine g.
func (c *Checker) agentLocked(g uint64) int {
	if s := c.stack[g]; len(s) > 0 {
		return int(s[len(s)-1]) + 1
	}
	return mainAgent
}

func (c *Checker) nameOf(t queue.ThreadID) string {
	if int(t) >= 0 && int(t) < len(c.names) {
		return c.names[t]
	}
	return fmt.Sprintf("thread-%d", t)
}

func (c *Checker) clockOf(agent int) *vclock {
	for len(c.clocks) <= agent {
		c.clocks = append(c.clocks, nil)
	}
	return &c.clocks[agent]
}

func (c *Checker) slotOf(s *[]vclock, t queue.ThreadID) *vclock {
	for len(*s) <= int(t) {
		*s = append(*s, nil)
	}
	return &(*s)[t]
}

// RegisterThread records thread t's name for diagnostics.
func (c *Checker) RegisterThread(t queue.ThreadID, name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.names) <= int(t) {
		c.names = append(c.names, "")
	}
	c.names[t] = name
}

// OnCancel checks a tcancel against running instances. running is the
// number of instances executing at the cancel.
func (c *Checker) OnCancel(t queue.ThreadID, running int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if running > 0 {
		c.record(Violation{
			Kind: KindCancelRace, Thread: t, ThreadName: c.nameOf(t),
			Accessor: "main", Index: -1,
		})
	}
}

// OnTrigger records that a store by the agent running on goroutine g fired
// thread t: the instance that consumes the trigger happens after the store.
// Called for enqueued, squashed and overflowed outcomes alike — in every
// case the instance that eventually runs observes the stored value.
func (c *Checker) OnTrigger(g uint64, t queue.ThreadID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	a := c.agentLocked(g)
	c.slotOf(&c.release, t).join(*c.clockOf(a))
}

// EnterSupport marks goroutine g as executing an instance of t. The
// instance inherits every release clock published for t so far.
func (c *Checker) EnterSupport(g uint64, t queue.ThreadID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	agent := int(t) + 1
	clk := c.clockOf(agent)
	clk.join(*c.slotOf(&c.release, t))
	clk.bump(agent)
	c.stack[g] = append(c.stack[g], t)
}

// ExitSupport marks the instance of t on goroutine g as complete and
// publishes its clock for Wait/Barrier to join.
func (c *Checker) ExitSupport(g uint64, t queue.ThreadID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	agent := int(t) + 1
	c.slotOf(&c.published, t).join(*c.clockOf(agent))
	s := c.stack[g]
	if len(s) == 0 || s[len(s)-1] != t {
		panic(fmt.Sprintf("sanitize: ExitSupport(%d) does not match the innermost EnterSupport", t))
	}
	if len(s) == 1 {
		delete(c.stack, g)
	} else {
		c.stack[g] = s[:len(s)-1]
	}
}

// OnWait records that the agent on goroutine g waited for t: everything t's
// completed instances did is now ordered before the waiter's next access.
func (c *Checker) OnWait(g uint64, t queue.ThreadID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	a := c.agentLocked(g)
	if int(t) < len(c.published) {
		c.clockOf(a).join(c.published[t])
	}
}

// OnBarrier records a global join: the agent on g is now ordered after
// every completed instance of every thread.
func (c *Checker) OnBarrier(g uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	a := c.agentLocked(g)
	clk := c.clockOf(a)
	for _, pub := range c.published {
		clk.join(pub)
	}
}

// regions maps addresses back to (region, index) for diagnostics; the
// runtime passes both on each access, so the checker stores per-word write
// records keyed by address only.
type access struct {
	region string
	index  int
	addr   mem.Addr
}

// writeBucketShift buckets write stamps by 4 KiB of address space — 512
// words, comfortably smaller than typical region allocations, so a
// release's partial buckets (at most two, at the range ends) hold few
// strays.
const writeBucketShift = 12

// lookupWrite returns addr's write stamp; the checker's lock is held.
func (c *Checker) lookupWrite(addr mem.Addr) (writeRec, bool) {
	rec, ok := c.writesLazy[addr>>writeBucketShift][addr]
	return rec, ok
}

// stampWrite records addr's last writer, allocating the bucket (and, on
// the very first checked write, the bucket index) lazily; the checker's
// lock is held.
func (c *Checker) stampWrite(addr mem.Addr, rec writeRec) {
	if c.writesLazy == nil {
		c.writesLazy = make(map[mem.Addr]map[mem.Addr]writeRec)
	}
	b := c.writesLazy[addr>>writeBucketShift]
	if b == nil {
		b = make(map[mem.Addr]writeRec)
		c.writesLazy[addr>>writeBucketShift] = b
	}
	b[addr] = rec
}

// OnLoad checks a word read by the agent on goroutine g.
func (c *Checker) OnLoad(g uint64, region string, index int, addr mem.Addr) {
	c.mu.Lock()
	defer c.mu.Unlock()
	a := c.agentLocked(g)
	rec, ok := c.lookupWrite(addr)
	if !ok || rec.agent == a {
		return
	}
	if rec.tick <= c.clockOf(a).at(rec.agent) {
		return // the write happens-before this read
	}
	c.recordAccessViolation(a, rec, access{region, index, addr}, true)
}

// OnStore checks and stamps a word write by the agent on goroutine g. The
// runtime reports only a store that changed the word.
func (c *Checker) OnStore(g uint64, region string, index int, addr mem.Addr) {
	c.mu.Lock()
	defer c.mu.Unlock()
	a := c.agentLocked(g)
	if rec, ok := c.lookupWrite(addr); ok && rec.agent != a && rec.tick > c.clockOf(a).at(rec.agent) {
		c.recordAccessViolation(a, rec, access{region, index, addr}, false)
	}
	tick := c.clockOf(a).bump(a)
	c.stampWrite(addr, writeRec{agent: a, tick: tick})
}

// ReleaseRange drops the write stamps of every word in [lo, hi). The
// runtime calls it when a region's address range is returned to the
// allocator: a later tenant reusing the range must not inherit the old
// tenant's happens-before obligations (its first read would otherwise be
// flagged against a writer that no longer exists). The cost is bounded by
// the released range, not the total stamped footprint: buckets fully
// inside [lo, hi) drop in one delete, and only the (at most two) partial
// buckets at the range ends are scanned entry by entry.
func (c *Checker) ReleaseRange(lo, hi mem.Addr) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if lo >= hi || c.writesLazy == nil {
		return
	}
	const bucketBytes = mem.Addr(1) << writeBucketShift
	for bk := lo >> writeBucketShift; bk <= (hi-1)>>writeBucketShift; bk++ {
		b, ok := c.writesLazy[bk]
		if !ok {
			continue
		}
		base := bk << writeBucketShift
		if base >= lo && base+bucketBytes <= hi {
			delete(c.writesLazy, bk)
			continue
		}
		for addr := range b {
			if addr >= lo && addr < hi {
				delete(b, addr)
			}
		}
		if len(b) == 0 {
			delete(c.writesLazy, bk)
		}
	}
}

// recordAccessViolation classifies an unordered access of ac by agent a,
// where rec is the conflicting write.
func (c *Checker) recordAccessViolation(a int, rec writeRec, ac access, isRead bool) {
	v := Violation{Region: ac.region, Index: ac.index, Addr: ac.addr}
	switch {
	case a == mainAgent && rec.agent != mainAgent:
		v.Kind = KindReadBeforeWait
		if !isRead {
			v.Kind = KindWriteRace
		}
		v.Thread = queue.ThreadID(rec.agent - 1)
		v.ThreadName = c.nameOf(v.Thread)
		v.Accessor = "main"
	default:
		// Support thread reading/writing another agent's data (including
		// main-thread data written after the release point).
		v.Kind = KindCrossThread
		v.Accessor = c.nameOf(queue.ThreadID(a - 1))
		if rec.agent == mainAgent {
			v.Thread = -1
			v.ThreadName = "main"
		} else {
			v.Thread = queue.ThreadID(rec.agent - 1)
			v.ThreadName = c.nameOf(v.Thread)
		}
	}
	c.record(v)
}
