package engine

import "sync"

// task is one device's share of one retrieval: scan device dev for call
// c. Tasks are queued by value, so a fan-out of M devices allocates no
// per-device closure.
type task struct {
	c   *call
	dev int
}

// pool is a lazily-spawned bounded worker pool. Tasks are queued under a
// mutex; a submit spawns a new worker only while fewer than max are
// running, and workers exit as soon as the queue drains. The pool
// therefore needs no Close: an idle pool holds zero goroutines, yet a
// retrieval burst (or a RetrieveBatch) reuses the same workers across
// every device task instead of spawning one goroutine per device per
// query. The queue is consumed from a head index and keeps its backing
// array between bursts, so a steady workload stops regrowing it.
type pool struct {
	max     int
	mu      sync.Mutex
	queue   []task
	head    int
	workers int
	// worker is p.drain bound once: `go p.drain()` would allocate the
	// bound method value on every spawn, `go p.worker()` does not.
	worker func()
}

func newPool(max int) *pool {
	if max < 1 {
		max = 1
	}
	p := &pool{max: max}
	p.worker = p.drain
	return p
}

// submit enqueues t for execution. It never blocks; excess tasks wait in
// the queue until a worker frees up.
func (p *pool) submit(t task) {
	p.mu.Lock()
	if len(p.queue) == cap(p.queue) && p.head > 0 {
		// Full but partly consumed: slide the live tail to the front
		// instead of growing, so a pool that never goes idle stays
		// bounded by its backlog.
		n := copy(p.queue, p.queue[p.head:])
		clear(p.queue[n:])
		p.queue, p.head = p.queue[:n], 0
	}
	p.queue = append(p.queue, t)
	if p.workers < p.max {
		p.workers++
		p.mu.Unlock()
		go p.worker()
		return
	}
	p.mu.Unlock()
}

func (p *pool) drain() {
	for {
		p.mu.Lock()
		if p.head == len(p.queue) {
			p.workers--
			p.queue, p.head = p.queue[:0], 0
			p.mu.Unlock()
			return
		}
		t := p.queue[p.head]
		p.queue[p.head] = task{} // drop the call reference once taken
		p.head++
		p.mu.Unlock()
		t.c.exec.runTask(t.c, t.dev)
	}
}
