package vm

import (
	"fmt"
	"sync"

	"dtt/internal/core"
	"dtt/internal/queue"
)

// Machine executes an assembled Program against a DTT runtime. Its memory
// is a single core.Region of words addressed by index; tst instructions
// are real triggering stores, and .thread bodies run as real support
// threads — on worker goroutines when the runtime uses the immediate
// backend.
type Machine struct {
	rt      *core.Runtime
	ownRT   bool
	mem     *core.Region
	prog    *Program
	threads map[string]core.ThreadID

	mu   sync.Mutex
	out  []int64
	fail error

	// fuel bounds total executed instructions across the main program and
	// all support-thread bodies, so a buggy program terminates.
	fuel   int64
	budget int64
}

// Config configures a Machine.
type Config struct {
	// MemWords is the memory size; defaults to 4096.
	MemWords int
	// Fuel bounds total executed instructions; defaults to 1<<20.
	Fuel int64
	// Runtime supplies an existing runtime; when nil the machine creates
	// a deferred-backend runtime and owns its lifecycle.
	Runtime *core.Runtime
}

// New assembles nothing — pass a Program from Assemble. It registers the
// program's threads with the runtime and attaches nothing yet: attachment
// is the program's job, via tspawn.
func New(prog *Program, cfg Config) (*Machine, error) {
	if prog == nil || len(prog.Instrs) == 0 {
		return nil, fmt.Errorf("vm: empty program")
	}
	if cfg.MemWords <= 0 {
		cfg.MemWords = 4096
	}
	if cfg.Fuel <= 0 {
		cfg.Fuel = 1 << 20
	}
	m := &Machine{prog: prog, budget: cfg.Fuel, threads: map[string]core.ThreadID{}}
	if cfg.Runtime != nil {
		m.rt = cfg.Runtime
	} else {
		rt, err := core.New(core.Config{Backend: core.BackendDeferred})
		if err != nil {
			return nil, err
		}
		m.rt = rt
		m.ownRT = true
	}
	m.mem = m.rt.NewRegion("vm.mem", cfg.MemWords)
	for _, td := range prog.Threads {
		td := td
		id := m.rt.Register("vm."+td.Name, func(tg core.Trigger) {
			m.runBody(td.Entry, tg)
		})
		m.threads[td.Name] = id
	}
	return m, nil
}

// Close releases the runtime if the machine owns it.
func (m *Machine) Close() {
	if m.ownRT {
		m.rt.Close()
	}
}

// Output returns the values printed so far, in print order.
func (m *Machine) Output() []int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]int64, len(m.out))
	copy(out, m.out)
	return out
}

// Stats returns the underlying runtime's trigger statistics.
func (m *Machine) Stats() core.Stats { return m.rt.Stats() }

// FuelUsed returns the number of VM instructions executed so far, across
// the main program and all support-thread bodies — the machine's committed
// dynamic instruction count.
func (m *Machine) FuelUsed() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.fuel
}

// Run executes the main program from its entry to halt. It returns the
// first error raised anywhere, including inside support-thread bodies.
func (m *Machine) Run() error {
	var regs [NumRegs]int64
	if err := m.exec(m.prog.Entry, &regs, false, core.Trigger{}); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.fail
}

func (m *Machine) setFail(err error) {
	m.mu.Lock()
	if m.fail == nil {
		m.fail = err
	}
	m.mu.Unlock()
}

// runBody executes a support-thread body with a fresh register file.
// r1 holds the trigger's word index, r2 the triggering value.
func (m *Machine) runBody(entry int, tg core.Trigger) {
	var regs [NumRegs]int64
	regs[1] = int64(tg.Index)
	regs[2] = int64(tg.Region.Load(tg.Index))
	if err := m.exec(entry, &regs, true, tg); err != nil {
		m.setFail(err)
	}
}

// spendFuel decrements the shared fuel counter.
func (m *Machine) spendFuel(pc int) error {
	m.mu.Lock()
	m.fuel++
	over := m.fuel > m.budget
	m.mu.Unlock()
	if over {
		return fmt.Errorf("vm: fuel exhausted at pc %d (runaway program?)", pc)
	}
	return nil
}

// exec is the interpreter loop. inThread selects the legal terminator
// (tret vs halt) and forbids synchronisation instructions inside bodies.
func (m *Machine) exec(pc int, regs *[NumRegs]int64, inThread bool, _ core.Trigger) error {
	for {
		if pc < 0 || pc >= len(m.prog.Instrs) {
			return fmt.Errorf("vm: pc %d out of program", pc)
		}
		if err := m.spendFuel(pc); err != nil {
			return err
		}
		ins := m.prog.Instrs[pc]
		regs[0] = 0
		switch ins.Op {
		case OpNop:
		case OpLi:
			regs[ins.Rd] = ins.Imm
		case OpAdd:
			regs[ins.Rd] = regs[ins.Rs] + regs[ins.Rt]
		case OpSub:
			regs[ins.Rd] = regs[ins.Rs] - regs[ins.Rt]
		case OpMul:
			regs[ins.Rd] = regs[ins.Rs] * regs[ins.Rt]
		case OpAddi:
			regs[ins.Rd] = regs[ins.Rs] + ins.Imm
		case OpSlt:
			if regs[ins.Rs] < regs[ins.Rt] {
				regs[ins.Rd] = 1
			} else {
				regs[ins.Rd] = 0
			}
		case OpAnd:
			regs[ins.Rd] = regs[ins.Rs] & regs[ins.Rt]
		case OpOr:
			regs[ins.Rd] = regs[ins.Rs] | regs[ins.Rt]
		case OpXor:
			regs[ins.Rd] = regs[ins.Rs] ^ regs[ins.Rt]
		case OpShl:
			regs[ins.Rd] = regs[ins.Rs] << (uint64(regs[ins.Rt]) & 63)
		case OpShr:
			regs[ins.Rd] = int64(uint64(regs[ins.Rs]) >> (uint64(regs[ins.Rt]) & 63))
		case OpDiv:
			if regs[ins.Rt] == 0 {
				regs[ins.Rd] = 0
			} else {
				regs[ins.Rd] = regs[ins.Rs] / regs[ins.Rt]
			}
		case OpMod:
			if regs[ins.Rt] == 0 {
				regs[ins.Rd] = 0
			} else {
				regs[ins.Rd] = regs[ins.Rs] % regs[ins.Rt]
			}
		case OpLd:
			idx, err := m.addr(ins, regs)
			if err != nil {
				return err
			}
			regs[ins.Rd] = int64(m.mem.Load(idx))
		case OpSt:
			idx, err := m.addr(ins, regs)
			if err != nil {
				return err
			}
			// st is the ISA's non-triggering store by definition (tst is the
			// triggering form), and guest support-thread code also executes
			// through this interpreter loop.
			m.mem.Store(idx, uint64(regs[ins.Rd])) //dtt:ignore untriggered-write -- st is defined as non-triggering; the guest chooses st vs tst
		case OpTst:
			idx, err := m.addr(ins, regs)
			if err != nil {
				return err
			}
			m.mem.TStore(idx, uint64(regs[ins.Rd]))
		case OpBeq:
			if regs[ins.Rs] == regs[ins.Rt] {
				pc = ins.Target
				continue
			}
		case OpBne:
			if regs[ins.Rs] != regs[ins.Rt] {
				pc = ins.Target
				continue
			}
		case OpBlt:
			if regs[ins.Rs] < regs[ins.Rt] {
				pc = ins.Target
				continue
			}
		case OpJmp:
			pc = ins.Target
			continue
		case OpTspawn:
			id, ok := m.threads[ins.Sym]
			if !ok {
				return fmt.Errorf("vm: line %d: tspawn of undeclared thread %q", ins.Line, ins.Sym)
			}
			lo, hi := int(regs[ins.Rs]), int(regs[ins.Rt])
			if err := m.rt.Attach(id, m.mem, lo, hi); err != nil {
				return fmt.Errorf("vm: line %d: %w", ins.Line, err)
			}
		case OpTcancel:
			id, ok := m.threads[ins.Sym]
			if !ok {
				return fmt.Errorf("vm: line %d: tcancel of undeclared thread %q", ins.Line, ins.Sym)
			}
			m.rt.Cancel(id)
		case OpTwait:
			if inThread {
				return fmt.Errorf("vm: line %d: twait inside a thread body", ins.Line)
			}
			id, ok := m.threads[ins.Sym]
			if !ok {
				return fmt.Errorf("vm: line %d: twait of undeclared thread %q", ins.Line, ins.Sym)
			}
			m.rt.Wait(id)
		case OpTbarrier:
			if inThread {
				return fmt.Errorf("vm: line %d: tbarrier inside a thread body", ins.Line)
			}
			m.rt.Barrier()
		case OpTstatus:
			id, ok := m.threads[ins.Sym]
			if !ok {
				return fmt.Errorf("vm: line %d: tstatus of undeclared thread %q", ins.Line, ins.Sym)
			}
			regs[ins.Rd] = int64(m.rt.Status(id))
		case OpPrint:
			m.mu.Lock()
			m.out = append(m.out, regs[ins.Rs])
			m.mu.Unlock()
		case OpTret:
			if !inThread {
				return fmt.Errorf("vm: line %d: tret outside a thread body", ins.Line)
			}
			return nil
		case OpHalt:
			if inThread {
				return fmt.Errorf("vm: line %d: halt inside a thread body", ins.Line)
			}
			return nil
		default:
			return fmt.Errorf("vm: line %d: unimplemented opcode %d", ins.Line, ins.Op)
		}
		pc++
	}
}

func (m *Machine) addr(ins Instr, regs *[NumRegs]int64) (int, error) {
	idx := regs[ins.Rs] + ins.Imm
	if idx < 0 || idx >= int64(m.mem.Len()) {
		return 0, fmt.Errorf("vm: line %d: memory index %d out of [0, %d)", ins.Line, idx, m.mem.Len())
	}
	return int(idx), nil
}

// Status values returned by tstatus, mirroring the TQST encoding.
const (
	StatusIdle    = int64(queue.StatusIdle)
	StatusPending = int64(queue.StatusPending)
	StatusRunning = int64(queue.StatusRunning)
)
