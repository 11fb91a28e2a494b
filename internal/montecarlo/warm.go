package montecarlo

import "fmt"

// WithConfig returns an estimator that shares the receiver's compiled
// snapshot — the frozen CSR form, per-task failure probabilities, single-
// failure head/tail tables, the control variate's Δ_k and E[C], the
// sampler's bit-level threshold tables and the stratified estimator's
// exact part —
// under a different run configuration. Construction cost is O(1): none of
// the shared state is rebuilt, which is what lets the makespand registry
// answer a warm estimate request without paying freeze/table costs again.
//
// Trials, Seed, Workers, Sketch and the adaptive knobs (Tolerance,
// TargetQuantile, Confidence, MaxTrials) may change: Mode selects how the snapshot arrays
// are interpreted, so switching it requires a fresh estimator. The shared state is read-only during runs;
// the receiver and every derived estimator may Run concurrently.
func (e *Estimator) WithConfig(cfg Config) (*Estimator, error) {
	if cfg.Mode != e.cfg.Mode {
		return nil, fmt.Errorf("montecarlo: WithConfig cannot change Mode (%v to %v); build a new estimator", e.cfg.Mode, cfg.Mode)
	}
	cfg, err := normalizeConfig(cfg)
	if err != nil {
		return nil, err
	}
	ne := *e
	ne.cfg = cfg
	return &ne, nil
}

// SizeBytes reports the approximate retained heap size of the compiled
// snapshot: the per-task probability and path arrays plus the sampler
// threshold tables. The frozen graph is excluded — it is shared with the
// registry entry that owns it and accounted there. Attempt tables shared
// between equal-probability positions are counted once.
func (e *Estimator) SizeBytes() int64 {
	s := int64(len(e.pfTopo)+len(e.invLnPf)+len(e.hpt)+len(e.delta)) * 8
	s += int64(len(e.sinks)) * 4
	if st := e.strat; st != nil {
		s += int64(len(st.first)+len(st.logS))*8 + 64
	}
	if tb := e.tables; tb != nil {
		s += int64(len(tb.gapBits)+len(tb.thinBits)+len(tb.attFirst)) * 8
		s += int64(len(tb.attTrunc))
		seen := make(map[*uint64]bool)
		for _, t := range tb.attBits {
			if len(t) == 0 || seen[&t[0]] {
				continue
			}
			seen[&t[0]] = true
			s += int64(len(t)) * 8
		}
		s += int64(len(tb.attBits)) * 24 // slice headers
	}
	return s + 256 // struct header
}
