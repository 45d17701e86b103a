//eslurmlint:testpath eslurm/internal/timerleak_good

// Package timerleak_good pins the shapes timerleak must stay silent on:
// fire-and-forget discards, cancel-on-all-paths, escapes, rebinding,
// and query-only observation.
package timerleak_good

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

type rec struct{ timer Event }

func park(ev Event) {}

// FireAndForget never binds the handle — the sanctioned idiom for
// events that must always run.
func FireAndForget(e *Engine) {
	e.After(10, func() {})
}

// CancelBothArms settles the handle on every path.
func CancelBothArms(e *Engine, early bool) {
	ev := e.After(10, func() {})
	if early {
		ev.Cancel()
		return
	}
	ev.Cancel()
}

// QueryThenCancel observes the handle (neutral) before settling it.
func QueryThenCancel(e *Engine) {
	ev := e.After(10, func() {})
	if ev.Canceled() {
		ev.Cancel()
		return
	}
	ev.Cancel()
}

// StoreEscape parks the handle on a record whose owner cancels it.
func StoreEscape(e *Engine, r *rec) {
	r.timer = e.After(10, func() {})
}

// LocalThenStore binds locally first, then transfers ownership.
func LocalThenStore(e *Engine, r *rec) {
	ev := e.After(10, func() {})
	r.timer = ev
}

// CaptureEscape hands the handle to the closure that decides its fate.
func CaptureEscape(e *Engine) func() {
	ev := e.After(10, func() {})
	return func() { ev.Cancel() }
}

// ArgEscape hands the handle to arbitrary code.
func ArgEscape(e *Engine) {
	ev := e.After(10, func() {})
	park(ev)
}

// ReturnEscape hands the handle to the caller.
func ReturnEscape(e *Engine) Event {
	ev := e.After(10, func() {})
	return ev
}

// MethodValueEscape extracts the cancel itself; whoever runs it owns
// the handle.
func MethodValueEscape(e *Engine) func() {
	tk := e.Every(5, func() {})
	stop := tk.Stop
	return stop
}

// Rebind replaces the handle after cancelling through the rebinding:
// the old lifecycle ends at the assignment.
func Rebind(e *Engine) {
	ev := e.After(10, func() {})
	ev = e.After(20, func() {})
	ev.Cancel()
}

// AfterTo mimics the handler form of After.
func (e *Engine) AfterTo(d int64, h interface{ HandleEvent(int32) }, kind int32) Event {
	return Event{}
}

type waiter struct{}

func (waiter) HandleEvent(int32) {}

// HandlerForms discards one handler-form handle and settles the other on
// every path.
func HandlerForms(e *Engine, early bool) {
	e.AfterTo(10, waiter{}, 0)
	ev := e.AfterTo(10, waiter{}, 0)
	if early {
		ev.Cancel()
		return
	}
	ev.Cancel()
}
