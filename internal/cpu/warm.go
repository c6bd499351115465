package cpu

import (
	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/trace"
)

// WarmState holds functionally-warmed locality state: a cache
// hierarchy and a branch predictor that have observed a prefix of the
// committed stream without any timing simulation. It is the SMARTS
// "functional warming" idea — sampled simulators are wrong about cache
// and predictor state unless that state is carried continuously across
// the stream, but carrying it only needs the access sequence, which is
// orders of magnitude cheaper than detailed simulation.
//
// Respecting the config's Perfect* switches, a WarmState built from the
// same Config a pipeline runs is exactly the state that pipeline would
// have accumulated at commit (the pipeline also touches the structures
// speculatively on the wrong path, which warming cannot reproduce — a
// small, documented approximation).
type WarmState struct {
	hier *cache.Hierarchy
	pred *bpred.Predictor
}

// NewWarmState builds cold locality state for cfg.
func NewWarmState(cfg Config) *WarmState {
	ws := &WarmState{}
	if !cfg.PerfectCaches {
		ws.hier = cache.NewHierarchy(cfg.Hier)
	}
	if !cfg.PerfectBpred {
		ws.pred = bpred.New(cfg.Bpred)
	}
	return ws
}

// Warm streams src through the locality models (I-cache per
// instruction, D-cache per memory access, predictor lookup+update per
// branch) and returns how many instructions it consumed.
func (ws *WarmState) Warm(src trace.Source) uint64 {
	var d trace.DynInst
	var n uint64
	for src.Next(&d) {
		n++
		if ws.hier != nil {
			ws.hier.AccessI(d.PC)
			if d.Class.IsMem() {
				ws.hier.AccessD(d.EffAddr)
			}
		}
		if ws.pred != nil && d.Class.IsBranch() {
			ws.pred.Lookup(d.PC, d.Class)
			ws.pred.Update(d.PC, d.Class, d.Taken, d.NextPC)
		}
	}
	return n
}

// NewExecutionDrivenWarmed builds the reference simulator starting from
// pre-warmed locality state instead of cold structures. ws must have
// been built for the same locality configuration (hierarchy, predictor,
// Perfect* switches) as cfg, and must not be reused afterwards — the
// pipeline mutates it.
func NewExecutionDrivenWarmed(cfg Config, src trace.Source, ws *WarmState) *Pipeline {
	p := newPipeline(cfg, trace.NewSpool(src).NewCursor())
	if !cfg.PerfectCaches {
		h := ws.hier
		if h == nil {
			h = cache.NewHierarchy(cfg.Hier)
		}
		p.iHier, p.dHier = h, h
	}
	if !cfg.PerfectBpred {
		pr := ws.pred
		if pr == nil {
			pr = bpred.New(cfg.Bpred)
		}
		p.pred = pr
	}
	return p
}
