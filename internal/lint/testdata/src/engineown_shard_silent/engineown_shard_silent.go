//eslurmlint:testpath eslurm/internal/simnet

// Package simnet (test double) models the shard kernel's sanctioned
// barrier handoff: the ShardGroup receiver itself is go'd, the
// coordinator publishes a window in a pool that holds no engine, and
// workers claim cells through an atomic cursor, woken and joined over
// channels of empty tokens. The only engine-owned value that crosses a
// goroutine is the ShardGroup, so engineown must report nothing.
package simnet

import (
	"sync/atomic"
	"time"
)

// Engine mimics the kernel surface; engineown matches it by name.
type Engine struct {
	now time.Duration
}

func (e *Engine) Step() bool { return false }

// ShardGroup mirrors the real kernel's one sanctioned type.
type ShardGroup struct {
	cells   []*Engine
	workers int
	pool    *shardPool
}

// shardPool mirrors the real kernel's pool: the published window, the
// claim cursor and the token channels — no engine anywhere in it.
type shardPool struct {
	end  time.Duration
	next atomic.Int32
	wake chan struct{}
	done chan struct{}
}

// runWindow wakes the workers, claims cells beside them and waits at the
// barrier — the sanctioned crossing the exemption exists for.
func (g *ShardGroup) runWindow(end time.Duration) {
	if g.pool == nil {
		g.startWorkers()
	}
	p := g.pool
	p.end = end
	p.next.Store(0)
	for w := 1; w < g.workers; w++ {
		p.wake <- struct{}{}
	}
	g.claimCells(p)
	for w := 1; w < g.workers; w++ {
		<-p.done
	}
}

func (g *ShardGroup) startWorkers() {
	p := &shardPool{wake: make(chan struct{}, g.workers-1), done: make(chan struct{}, g.workers-1)}
	for w := 1; w < g.workers; w++ {
		go g.worker(p)
	}
	g.pool = p
}

func (g *ShardGroup) claimCells(p *shardPool) {
	for i := int(p.next.Add(1)) - 1; i < len(g.cells); i = int(p.next.Add(1)) - 1 {
		for g.cells[i].Step() {
		}
	}
}

func (g *ShardGroup) worker(p *shardPool) {
	for range p.wake {
		g.claimCells(p)
		p.done <- struct{}{}
	}
}
