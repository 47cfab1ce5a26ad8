// Package syncmisuse is a fixture: classic sync-primitive misuse.
package syncmisuse

import "sync"

// AddInside counts the goroutine from inside itself: Wait can return
// before the goroutine is scheduled.
func AddInside(work []func()) {
	var wg sync.WaitGroup
	for _, w := range work {
		w := w
		go func() {
			wg.Add(1) // want `WaitGroup\.Add inside the spawned goroutine`
			defer wg.Done()
			w()
		}()
	}
	wg.Wait()
}

// AddOutside is the good shape: Add on the spawning side.
func AddOutside(work []func()) {
	var wg sync.WaitGroup
	for _, w := range work {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			w()
		}()
	}
	wg.Wait()
}

type pool struct {
	done sync.WaitGroup
}

// Stop calls Done on a wait group nothing in this package ever Adds
// to: the counter underflows.
func (p *pool) Stop() {
	p.done.Done() // want `nothing in this package ever calls Add`
}
