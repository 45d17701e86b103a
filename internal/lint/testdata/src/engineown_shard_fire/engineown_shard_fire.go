//eslurmlint:testpath eslurm/internal/simnet

// Package simnet (test double) proves the shard exemption is typed, not
// a package waiver: raw engine state crossing goroutines, channels, or
// globals in the very package that declares ShardGroup still fires.
package simnet

import "time"

// Engine mimics the kernel surface; engineown matches it by name.
type Engine struct {
	now time.Duration
}

func (e *Engine) Step() bool { return false }

// ShardGroup exists so the sanctioned type is in scope — its presence
// must not silence anything below.
type ShardGroup struct {
	cells []*Engine
}

// BadFanOut ships the raw engine slice over an unsanctioned channel.
func (g *ShardGroup) BadFanOut(ch chan []*Engine) {
	ch <- g.cells // want "escapes to a channel send"
}

// shardCmd is a window assignment that carries its cells. The exemption
// names ShardGroup alone, so sending one is a finding like any other
// engine-holding struct on a channel.
type shardCmd struct {
	cells []*Engine
	end   time.Duration
}

// BadAssign ships cells to a worker inside a command.
func (g *ShardGroup) BadAssign(cmds chan shardCmd, end time.Duration) {
	cmds <- shardCmd{cells: g.cells, end: end} // want "escapes to a channel send"
}

// BadSpawn hands one raw cell to a goroutine.
func (g *ShardGroup) BadSpawn() {
	c := g.cells[0]
	go func() {
		c.Step() // want "escapes to a goroutine (captured by the go'd closure)"
	}()
}

// leakedCell is engine-bound global state: flagged at the declaration.
var leakedCell *Engine // want "package-level var leakedCell holds engine-bound"

// BadPark parks a cell in the package-level variable.
func (g *ShardGroup) BadPark() {
	leakedCell = g.cells[0] // want "escapes to a store into package-level var leakedCell"
}
