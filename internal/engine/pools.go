package engine

import (
	"fxdist/internal/mempool"
	"fxdist/internal/mkhash"
)

// Hot-path slab pools shared by every executor in the process. Per-device
// hit frames and the merged record slab are the big ones (they scale with
// result size); the rest are the per-call fan-out scratch that used to be
// allocated fresh on every retrieval. All sites reach them through the
// executor's accessors below, which return nil (a pass-through) when the
// executor was built with Config.NoPool — so "pooling off" is a data
// decision, not a second code path.
var (
	hitsPool    = mempool.NewSlicePool[mkhash.Record]("engine.hits")
	recsPool    = mempool.NewSlicePool[mkhash.Record]("engine.records")
	answersPool = mempool.NewSlicePool[Answer]("engine.answers")
	errsPool    = mempool.NewSlicePool[error]("engine.errs")
	callsPool   = mempool.NewSlicePool[*call]("engine.calls")
)

// HitsPool returns the shared pool device adapters draw per-device hit
// frames from — the executor's merge returns every frame it consumes to
// this pool, so adapters and executor must agree on it. enabled=false
// returns nil, the nil pass-through pool (plain append semantics), which
// is how WithoutMemPool reaches the device adapters.
func HitsPool(enabled bool) *mempool.SlicePool[mkhash.Record] {
	if !enabled {
		return nil
	}
	return hitsPool
}

func (e *Executor) hitsP() *mempool.SlicePool[mkhash.Record] {
	if e.noPool {
		return nil
	}
	return hitsPool
}

func (e *Executor) answersP() *mempool.SlicePool[Answer] {
	if e.noPool {
		return nil
	}
	return answersPool
}

func (e *Executor) errsP() *mempool.SlicePool[error] {
	if e.noPool {
		return nil
	}
	return errsPool
}

func (e *Executor) callsP() *mempool.SlicePool[*call] {
	if e.noPool {
		return nil
	}
	return callsPool
}

// arenaOn reports whether merged results lease pooled arenas (Config.
// ArenaResults); NoPool wins when both are set, because a disabled pool
// has nothing to lease from.
func (e *Executor) arenaOn() bool { return e.arena && !e.noPool }
