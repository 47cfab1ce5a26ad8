package main

import (
	"runtime/metrics"
	"sync"
	"time"
)

// memSampler samples the memory the Go runtime has mapped and not
// released — heap, stacks and runtime structures, which is the
// process's resident set less its code — every 10 ms while a phase
// runs. peak_rss_mb is the 95th percentile of the samples: the maximum
// is one garbage-collection cycle's spike, and on offline-table1 it
// swings by 30 % between identical runs, while the 95th percentile
// stays within 5 %.
type memSampler struct {
	stop    chan struct{}
	done    sync.WaitGroup
	samples []float64
}

func startMemSampler() *memSampler {
	m := &memSampler{stop: make(chan struct{})}
	m.done.Add(1)
	go func() {
		defer m.done.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			m.samples = append(m.samples, residentMB())
			select {
			case <-m.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return m
}

// finish stops the sampler and returns its samples in MB.
func (m *memSampler) finish() []float64 {
	close(m.stop)
	m.done.Wait()
	return m.samples
}

func residentMB() float64 {
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()-s[1].Value.Uint64()) / (1 << 20)
}
