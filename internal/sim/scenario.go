package sim

import (
	"fmt"

	"dismem/internal/cluster"
	"dismem/internal/scenario"
)

// This file is the engine half of the scenario subsystem: timed
// interventions arrive as ordinary DES events (scheduled in Start) and
// are applied here through the cluster's sanctioned mutation surface.
// After every intervention the engine re-dilates running jobs and
// requests a scheduling pass, exactly as it does after any other state
// change, so scenario runs follow the same determinism contract as
// plain ones.

// onScenario applies one intervention at its scheduled time.
func (e *Engine) onScenario(now int64, ev scenario.Event) {
	if !e.Outstanding() {
		return // nothing outstanding; record already cancels the rest
	}
	for _, o := range e.outs {
		o.scenario(now, ev, false)
	}
	e.applyScenario(now, ev)
	e.scenApplied++
	for _, o := range e.outs {
		o.scenario(now, ev, true)
	}
	if ev.Kind == scenario.Beta && !e.reDilate {
		// Contention-insensitive models never re-dilate via
		// afterChange, but a penalty shift changes in-flight rates too.
		e.redilateRunning(now)
	}
	e.afterChange(now)
	e.requestPass()
}

// applyScenario mutates the machine (or the engine's penalty scale)
// for one event. Targets that do not exist or are already in the
// requested state are skipped: a scenario is a plan written before the
// run, and "down rack 7" on a machine whose rack 7 a failure already
// emptied, or that has not grown yet, is a no-op rather than an error.
func (e *Engine) applyScenario(now int64, ev scenario.Event) {
	switch ev.Kind {
	case scenario.Down:
		for _, id := range e.targetNodes(ev) {
			e.downNode(now, id)
		}
	case scenario.Up:
		for _, id := range e.targetNodes(ev) {
			delete(e.scenarioDown, id)
			if e.m.Nodes()[id].Down {
				if err := e.m.SetUp(id); err != nil {
					panic(fmt.Sprintf("sim: scenario repairing node %d: %v", id, err))
				}
			}
		}
	case scenario.Resize:
		if ev.Pool == scenario.AllPools {
			if len(e.m.Pools()) > 0 {
				if err := e.m.SetAllPoolCapacities(ev.CapMiB); err != nil {
					panic(fmt.Sprintf("sim: scenario resize: %v", err))
				}
			}
		} else if _, ok := e.m.Pool(cluster.PoolID(ev.Pool)); ok {
			if err := e.m.SetPoolCapacity(cluster.PoolID(ev.Pool), ev.CapMiB); err != nil {
				panic(fmt.Sprintf("sim: scenario resize: %v", err))
			}
		}
	case scenario.Beta:
		e.dilScale = ev.Scale
	case scenario.Grow:
		for i := 0; i < ev.Racks; i++ {
			if _, err := e.m.AddRack(); err != nil {
				panic(fmt.Sprintf("sim: scenario grow: %v", err))
			}
		}
	}
}

// targetNodes resolves a Down/Up event to the node IDs it addresses,
// dropping targets outside the machine's current shape.
func (e *Engine) targetNodes(ev scenario.Event) []cluster.NodeID {
	cfg := e.m.Config()
	if ev.Node != scenario.NoTarget {
		if ev.Node >= cfg.TotalNodes() {
			return nil
		}
		return []cluster.NodeID{cluster.NodeID(ev.Node)}
	}
	if ev.Rack >= cfg.Racks {
		return nil
	}
	base := ev.Rack * cfg.NodesPerRack
	out := make([]cluster.NodeID, 0, cfg.NodesPerRack)
	for i := 0; i < cfg.NodesPerRack; i++ {
		out = append(out, cluster.NodeID(base+i))
	}
	return out
}

// downNode takes one node out of service, killing and resubmitting its
// occupant first (the same lifecycle a random failure applies), and
// counts it as a node failure in the report. The node is marked
// scenario-held even when a random failure already downed it, so the
// failure repair cannot bring it back before the scenario's "up".
func (e *Engine) downNode(now int64, id cluster.NodeID) {
	e.scenarioDown[id] = true
	n := e.m.Nodes()[id]
	if n.Down {
		return
	}
	e.failures++
	if n.Busy != 0 {
		e.terminate(now, n.Busy, true, true)
	}
	if !e.Outstanding() {
		// The kill above was the last outstanding job (it exhausted its
		// restart budget); the machine state no longer matters.
		return
	}
	if err := e.m.SetDown(id); err != nil {
		panic(fmt.Sprintf("sim: scenario failing node %d: %v", id, err))
	}
}

// maxRestarts returns the resubmission budget for failure- and
// outage-killed jobs: the failure config's bound when one is set, else
// the same default (3) scenarios use on reliable machines.
func (e *Engine) maxRestarts() int {
	if e.cfg.Failures != nil {
		return e.cfg.Failures.maxRestarts()
	}
	return 3
}

// scaledDilation applies the scenario's remote-penalty scale to a
// model-predicted dilation: d -> 1 + scale*(d-1). All-local placements
// (d == 1) are unaffected, matching the physics the scale models (a
// fabric brownout slows only remote traffic).
func (e *Engine) scaledDilation(d float64) float64 {
	if e.dilScale == 1 || d <= 1 {
		return d
	}
	return 1 + e.dilScale*(d-1)
}
