// Package hot is the hotlint fixture: allocation patterns inside functions
// annotated //repro:hotpath.
package hot

import "fmt"

type sink interface {
	accept(v any)
}

type event struct {
	at  int64
	seq int64
}

type engine struct {
	heap []event
	out  sink
	cb   func()
	seen map[int64]bool
	name string
}

const prefix = "hot-"

func takesInterface(v any) {}

func takesPointer(p *event) {}

// step is the per-event inner loop.
//
//repro:hotpath
func (e *engine) step(ev event) {
	takesPointer(&ev)
	takesInterface(&ev)
	takesInterface(ev) // want `boxes a .*\.event into interface`
	if ev.seq < 0 {
		panic(fmt.Sprintf("hot: negative seq %d", ev.seq)) // fmt inside panic is exempt
	}
	fmt.Printf("stepping %d\n", ev.seq) // want `fmt.Printf on a //repro:hotpath function allocates`
	for i := range e.heap {
		tmp := make([]event, 0, 4) // want `make inside a hot-path loop allocates per iteration`
		_ = tmp
		m := map[int64]bool{ev.seq: true} // want `map literal allocated on every loop iteration`
		_ = m
		_ = i
	}
	e.cb = func() { e.release(ev.seq) } // want `closure captures "e"`
	e.name = prefix + e.name + "/"      // want `string concatenation on a //repro:hotpath function allocates per call`
	e.name = prefix + "constant"        // folded at compile time
	if e.name == "" {
		panic("hot: unnamed engine " + e.name) // concatenation inside panic is exempt
	}
}

// release is hot but clean: no closures, no boxing, no fmt.
//
//repro:hotpath
func (e *engine) release(seq int64) {
	delete(e.seen, seq)
}

// coldPath does all the same things without the annotation; hotlint must
// stay silent here.
func (e *engine) coldPath(ev event) {
	takesInterface(ev)
	fmt.Printf("cold %d\n", ev.seq)
	e.cb = func() { e.release(ev.seq) }
	e.name = prefix + e.name
}
