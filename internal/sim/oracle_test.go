package sim

import "container/heap"

// This file is the cycle-by-cycle reference oracle: the simulator's original
// scheduling loop, which ticks every cycle through the fixed phase sequence
// [admit, issue, tick, watchdog, retire, drainReady]. The discrete-event
// core (event.go) must reproduce it byte for byte; the golden differential
// tests install it through engine.sched to check that. It shares every
// helper with the event core and never parks a transfer, so the event
// core's bookkeeping in burstDone and restore is inert under it.

// cycleOracle is the scheduler that drives the reference loop.
type cycleOracle struct{}

func (cycleOracle) runUntil(e *engine, stopAt int64) (bool, error) { return e.runUntilCycle(stopAt) }

func (cycleOracle) drainInFlight(e *engine) (QuiesceState, int64, error) {
	return e.drainInFlightCycle()
}

// coreName labels a scheduling core in test messages (nil is the event core).
func coreName(s scheduler) string {
	if s == nil {
		return "event"
	}
	return "cycle"
}

// issueBursts feeds each running transfer's AG, reissuing fault-dropped
// bursts before advancing to new ones.
func (e *engine) issueBursts() {
	for _, rx := range e.running {
		e.issueInto(rx)
	}
}

// runUntilCycle is runUntil's cycle-by-cycle reference implementation.
func (e *engine) runUntilCycle(stopAt int64) (bool, error) {
	e.start()
	e.drainReady()
	for len(e.waiting) > 0 || len(e.running) > 0 {
		if stopAt >= 0 && e.clock >= stopAt {
			return false, nil
		}
		// Admit transfers whose start time has arrived; if idle, jump (but
		// never past the stop point).
		if len(e.running) == 0 && len(e.waiting) > 0 && e.waiting[0].start > e.clock {
			jump := e.waiting[0].start
			if stopAt >= 0 && jump > stopAt {
				jump = stopAt
			}
			e.clock = jump
			e.lastProgressAt = e.clock // a jump is forward progress
			if stopAt >= 0 && e.clock >= stopAt {
				return false, nil
			}
		}
		for len(e.waiting) > 0 && e.waiting[0].start <= e.clock {
			a := heap.Pop(&e.waiting).(*activity)
			rx := &runningXfer{act: a, lastBusy: -1}
			rx.done = e.burstDone(rx)
			e.running = append(e.running, rx)
			e.lastProgressAt = e.clock // admission is forward progress
		}
		e.issueBursts()
		e.clock++
		e.dram.Tick(e.clock)
		if err := e.checkWatchdog(); err != nil {
			return false, err
		}
		e.retire()
		e.drainReady()
	}
	return true, nil
}

// drainInFlightCycle is drainInFlight's per-cycle reference implementation.
func (e *engine) drainInFlightCycle() (QuiesceState, int64, error) {
	q := e.quiesceState()
	from := e.clock
	for !e.quiescent() {
		e.clock++
		e.dram.Tick(e.clock)
		if err := e.checkWatchdog(); err != nil {
			return q, e.clock - from, err
		}
		e.retire()
	}
	// Transfers finishing exactly at the drain boundary retire here so the
	// checkpoint sees them resolved.
	e.retire()
	return q, e.clock - from, nil
}
