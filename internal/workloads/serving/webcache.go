package serving

import (
	"fmt"

	"dtt/internal/mem"
	"dtt/internal/sched"
	"dtt/internal/serve"
)

// webcache is cache invalidation as a serving workload: the origin
// (driver) writes batches of fresh values through TSTORE_BATCH, the
// support thread turns every value-changing word into a notification
// (adjacent words share a ranged CHANGE_NOTIFY frame), and the client keeps a local cache coherent purely from the
// invalidation stream. A shed notification would leave the cache stale
// forever if it were silent — the in-band gap count on the next notify
// is what makes the staleness bounded: the client sees the jump, does
// one READ of the region, and is coherent again.
type webcache struct{}

func (webcache) Name() string { return "webcache" }

func (webcache) Description() string {
	return "TStoreBatch invalidations keep a client cache coherent; notify gaps recover via READ"
}

func (webcache) Run(cfg Config) (Report, error) {
	e, err := newEnv("webcache", cfg)
	if err != nil {
		return Report{}, err
	}
	cfg = e.cfg
	cs, err := serve.Dial(e.addr)
	if err != nil {
		rep, _ := e.finish()
		return rep, err
	}
	defer cs.Close()
	h, err := cs.Attach("cache", cfg.Keys, 0, cfg.Keys)
	if err == nil {
		err = cs.Subscribe(h)
	}
	if err != nil {
		rep, _ := e.finish()
		return rep, err
	}

	cache := make([]mem.Word, cfg.Keys)
	apply := func(n serve.Notify) { cache[n.Index] = n.Value }
	onGap := func() error {
		ws, err := cs.Read(h, 0, cfg.Keys)
		if err != nil {
			return err
		}
		copy(cache, ws)
		return nil
	}

	src := sched.New(cfg.Seed ^ 0xcac4e)
	batch := make([]mem.Word, cfg.BatchWords)
	err = e.runOpenLoop(func(scheduledAt int64, k int) error {
		lo := int(src.Uint64() % uint64(cfg.Keys-cfg.BatchWords+1))
		for i := range batch {
			// Monotone per-arrival values: every store changes its word,
			// so every word in the batch produces an invalidation.
			batch[i] = mem.Word(uint64(k+1)*0x9e3779b97f4a7c15 + uint64(lo+i))
		}
		if _, err := cs.Batch(h, lo, batch); err != nil {
			return err
		}
		if err := cs.Wait(h); err != nil {
			return err
		}
		if err := e.drain(cs, apply, onGap); err != nil {
			return err
		}
		e.observeResult(scheduledAt)
		e.rep.Completed++
		return nil
	})
	if err == nil {
		err = cs.Barrier()
	}
	if err == nil {
		err = e.drain(cs, apply, onGap)
	}
	if err != nil {
		rep, _ := e.finish()
		return rep, err
	}

	truth, err := cs.Read(h, 0, cfg.Keys)
	if err != nil {
		rep, _ := e.finish()
		return rep, fmt.Errorf("serving: webcache final read: %w", err)
	}
	for i, w := range truth {
		if cache[i] != w {
			e.rep.Stale++
		}
	}
	return e.finish()
}
