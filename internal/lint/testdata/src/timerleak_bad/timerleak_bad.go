//eslurmlint:testpath eslurm/internal/timerleak_bad

// Package timerleak_bad pins timerleak firing on branch-dependent
// dropped timer handles, with the multi-block path traces the messages
// carry.
package timerleak_bad

// Engine mimics the simnet scheduling surface.
type Engine struct{}

func (e *Engine) After(d int64, fn func()) Event  { return Event{} }
func (e *Engine) Every(d int64, fn func()) Ticker { return Ticker{} }

// Event is a generation-checked one-shot handle.
type Event struct{}

func (ev Event) Cancel() bool   { return true }
func (ev Event) Canceled() bool { return false }

// Ticker is a generation-checked repeating handle.
type Ticker struct{}

func (t Ticker) Stop() {}

// DropOnRetry binds the deadline timer but forgets it on the retry
// path: the timer still fires with nothing able to cancel it.
func DropOnRetry(e *Engine, retry bool) {
	ev := e.After(10, func() {}) // want "Engine.After handle \"ev\" may leave timerleak_bad.DropOnRetry still armed on path: After (timerleak_bad.go:28) -> `retry`=true (timerleak_bad.go:29) -> return"
	if retry {
		return
	}
	ev.Cancel()
}

// DropOnExhaustedLoop stops the ticker only when the loop hits its
// target; the exhausted path leaks it.
func DropOnExhaustedLoop(e *Engine, n int) {
	tk := e.Every(5, func() {}) // want "Engine.Every handle \"tk\" may leave timerleak_bad.DropOnExhaustedLoop still armed on path: Every (timerleak_bad.go:38) -> `i < n`=false"
	for i := 0; i < n; i++ {
		if i == 3 {
			tk.Stop()
			return
		}
	}
}

// AfterTo mimics the handler form of After.
func (e *Engine) AfterTo(d int64, h interface{ HandleEvent(int32) }, kind int32) Event {
	return Event{}
}

type waiter struct{}

func (waiter) HandleEvent(int32) {}

// DropHandlerTimer binds a handler-form timer and forgets it on one arm:
// the payload's shape does not change who must cancel it.
func DropHandlerTimer(e *Engine, retry bool) {
	ev := e.AfterTo(10, waiter{}, 0) // want "Engine.AfterTo handle \"ev\" may leave timerleak_bad.DropHandlerTimer still armed on path: AfterTo (timerleak_bad.go:59) -> `retry`=true"
	if retry {
		return
	}
	ev.Cancel()
}
