package sim

import (
	"math"
	"time"

	"repro/internal/battery"
	"repro/internal/core"
	"repro/internal/powersim"
	"repro/internal/units"
)

// QuiescentPlanner is the planner-contract extension behind the
// event-driven fast path (Config.SkipQuiescent). A scheme that implements
// it lets the engine elide whole spans of provably no-op ticks; a scheme
// that does not simply never skips.
//
// The contract is bit-identity with per-tick stepping:
//
//   - Quiescent(view) must report true only when PlanInto(view) would
//     reproduce the previous tick's actions bit for bit AND mutate no
//     scheme state observable after the span — either because the state
//     is at a fixed point (a settled EWMA, a full actuation ring carrying
//     identical frames) or because the mutation is exactly replicated by
//     SkipPlan (the vDEB refresh clock).
//   - NextEvent(view) is the scheme's own event horizon: how many ticks
//     from view.Time the certification stays valid assuming the view
//     stays frozen. math.MaxInt means no scheme-driven event ahead; the
//     engine subtracts a guard band from bounded horizons.
//   - SkipPlan(view, n) advances scheme-side clocks across n elided ticks
//     starting at view.Time, emitting exactly the trace events the
//     per-tick path would have emitted (for PAD/vDEB: the 1 s refresh
//     stamp and its KindVDEBAlloc record, synthesized from the values the
//     Quiescent check proved frozen).
type QuiescentPlanner interface {
	Scheme
	Quiescent(view ClusterView) bool
	NextEvent(view ClusterView) int
	SkipPlan(view ClusterView, n int)
}

// skipGuardBand is subtracted from every bounded event horizon so the
// last tick before an event boundary always runs on the live per-tick
// path. The horizons are exact counts of still-frozen ticks, so identity
// holds without it; the band is insurance against an off-by-one in any
// single horizon costing correctness instead of one tick of speed.
const skipGuardBand = 1

// skipAhead is the quiescence detector and span driver. It reports true
// after analytically advancing at least one tick; false means the caller
// must take the per-tick path. The checks run cheapest-first so busy runs
// pay one early-exit comparison chain, not the full predicate.
func (st *Stepper) skipAhead() bool {
	if st.ticks < 1 {
		return false // no previous tick to freeze against
	}
	cfg := &st.cfg
	tick := cfg.Tick

	// Background trace frozen horizon: every per-server series must be
	// provably bit-frozen from the offset the last tick sampled. Wobbly
	// traces fail on the first series, so this is O(1) rejection in the
	// common busy case.
	horizon := math.MaxInt
	if st.bg.series != nil {
		from := st.now - tick
		for _, s := range st.bg.series {
			h := s.InterpFrozenTicks(from, tick)
			if h < horizon {
				horizon = h
			}
			if horizon < 1 {
				return false
			}
		}
	}

	// Cluster-level engine state.
	if st.lastShedCount != 0 || st.pduDown != 0 || st.pduBreaker.Tripped() {
		return false
	}
	if st.lastTotalGrid > st.pduBreaker.Rated {
		return false
	}

	// Per-rack engine state: no battery or μDEB transfer in flight, no
	// shedding, no dark racks, draws inside both the overload-protection
	// rating and the effective-attack line, and the observation the
	// scheme would see next tick identical to the one it saw last tick.
	tol := units.Watts(1 + cfg.OvershootTolerance)
	for i := 0; i < cfg.Racks; i++ {
		act := st.curActions[i]
		if act.Discharge > 0 || act.ShedServers > 0 {
			return false
		}
		br := st.rackBreakers[i]
		if br.Tripped() || st.rackDark[i] || st.overLast[i] {
			return false
		}
		if st.rackShed[i] != 0 || st.rackGot[i] != 0 || st.rackMicro[i] != 0 {
			return false
		}
		if st.draws[i] > br.Rated || st.draws[i] > st.budgets[i]*tol {
			return false
		}
		if st.views[i].LastDraw != st.lastDraws[i] {
			return false
		}
		if !st.resters[i].AtRest(tick) {
			return false
		}
		if m := st.micros[i]; m != nil && act.MicroCharge > 0 && !m.AtRest(tick) {
			return false
		}
	}

	// Attack controllers: each group must be bitwise settled on the
	// capped observation it would make this tick, and bounds the span at
	// its next phase/spike/RNG boundary.
	for g := range st.attacks {
		capped := false
		for _, r := range st.groupRacks[g] {
			if st.lastFreq[r] < 0.999 {
				capped = true
				break
			}
		}
		a := st.attacks[g].Attack
		if !a.Quiescent(capped, tick) {
			return false
		}
		if h := a.NextEvent(capped, tick) - skipGuardBand; h < horizon {
			horizon = h
		}
		if horizon < 1 {
			return false
		}
	}

	// Scheme state, checked last because it is the most expensive
	// predicate (PAD recomputes the full vDEB allocation to compare).
	var totalDemand units.Watts
	for i := range st.views {
		totalDemand += st.views[i].Demand
	}
	view := ClusterView{
		Time:        st.now,
		Tick:        tick,
		TotalDemand: totalDemand,
		PDUBudget:   st.pduBudget,
		Racks:       st.views,
		Trace:       st.tracer,
	}
	if !st.quiet.Quiescent(view) {
		return false
	}
	if h := st.quiet.NextEvent(view); h != math.MaxInt {
		if h -= skipGuardBand; h < horizon {
			horizon = h
		}
	}

	// Clamp to the run horizon and the configured span cap.
	if remaining := int((cfg.Duration - st.now + tick - 1) / tick); remaining < horizon {
		horizon = remaining
	}
	if cfg.SkipMaxSpan > 0 && cfg.SkipMaxSpan < horizon {
		horizon = cfg.SkipMaxSpan
	}
	if horizon < 1 {
		return false
	}
	st.skipSpan(view, horizon)
	return true
}

// skipSpan advances n quiescent ticks in one analytic kernel call. Float
// accumulators are non-associative, so every per-tick add the live path
// would perform is replicated here in the same per-accumulator order with
// the frozen operands; integer clocks and the exponentially cooling
// breakers advance in closed form (the cooling multiply is iterated — see
// powersim.Breaker.CoolN). Quiescent ticks emit no trace events by
// construction (every emission is edge-triggered and no edge fires), so
// the only trace work is the scheme's own SkipPlan synthesis and keeping
// the thermal-warning edge state coherent for the ticks after the span.
func (st *Stepper) skipSpan(view ClusterView, n int) {
	cfg := &st.cfg
	tick := cfg.Tick

	allZero := true
	for s := 0; s < st.totalServers; s++ {
		if st.curDemand[s] != 0 {
			allZero = false
			break
		}
	}
	eGrid := st.lastTotalGrid.Energy(tick)
	lvl := core.Level(0)
	if st.hasLevel {
		lvl = st.levelScheme.Level()
	}
	shedRatio := float64(st.lastShedCount) / float64(st.totalServers)

	for k := 0; k < n; k++ {
		// Work accounting: demanded += u and delivered += min(u, freq)
		// per server in rack order, exactly as the reduce would. When
		// every demand is ±0 both adds are bitwise no-ops and the whole
		// pass collapses.
		if !allZero {
			for i := 0; i < cfg.Racks; i++ {
				base := i * cfg.ServersPerRack
				freq := st.lastFreq[i]
				for s := 0; s < cfg.ServersPerRack; s++ {
					u := st.curDemand[base+s]
					st.demandedWork += u
					st.deliveredWork += minf(u, freq)
				}
			}
		}
		for i := 0; i < cfg.Racks; i++ {
			st.res.EnergyServed += st.rackPower[i].Energy(tick)
		}
		st.res.EnergyFromGrid += eGrid
		st.ticks++
		if st.rec != nil && st.ticks%st.recEvery == 0 {
			st.rec.TotalGrid.Append(float64(st.lastTotalGrid))
			for i := 0; i < cfg.Racks; i++ {
				st.rec.RackSOC[i].Append(st.batteries[i].SOC())
				st.rec.RackDraw[i].Append(float64(st.draws[i]))
				if st.micros[i] != nil {
					st.rec.MicroSOC[i].Append(st.micros[i].SOC())
				}
			}
			st.rec.Levels = append(st.rec.Levels, lvl)
			st.rec.ShedRatio.Append(shedRatio)
			st.rec.AttackUtil.Append(st.lastAttackU)
		}
	}

	for g := range st.attacks {
		st.attacks[g].Attack.Skip(n, tick)
	}
	st.quiet.SkipPlan(view, n)
	for i := 0; i < cfg.Racks; i++ {
		st.rackBreakers[i].CoolN(n, tick)
	}
	st.pduBreaker.CoolN(n, tick)
	if st.tracer != nil {
		// Only the falling edge of the thermal early warning can occur
		// while cooling, and falling edges emit nothing — but the flag
		// must land where per-tick stepping would leave it so a later
		// re-heating emits (or suppresses) KindHeat identically. The
		// run-minimum margin cannot improve on frozen draws the previous
		// live tick already observed, so no KindMarginLow either.
		for i := 0; i < cfg.Racks; i++ {
			st.refreshHeatFlag(i, st.rackBreakers[i])
		}
		st.refreshHeatFlag(cfg.Racks, st.pduBreaker)
	}
	st.now += time.Duration(n) * tick
	st.skipSpans++
	st.skipTicks += int64(n)
}

func (st *Stepper) refreshHeatFlag(idx int, br *powersim.Breaker) {
	st.traceHeatHigh[idx] = br.Heat() >= br.TripThreshold()/2
}

// SkipStats reports the quiescent fast path's work so far: how many
// analytic spans ran and how many ticks they elided. Both are zero when
// skipping is disabled or never engaged; they are observability only and
// deliberately not part of Result, which stays bit-identical to a
// per-tick run.
func (st *Stepper) SkipStats() (spans, ticks int64) {
	return st.skipSpans, st.skipTicks
}

// initSkip resolves whether the fast path can engage for this run: the
// knob must be on, the scheme must implement QuiescentPlanner, and every
// battery the factory built must implement battery.Rester (the trial-step
// fixed-point probe). Any miss quietly disables skipping — correctness
// never depends on it.
func (st *Stepper) initSkip() {
	if !st.cfg.SkipQuiescent {
		return
	}
	quiet, ok := st.scheme.(QuiescentPlanner)
	if !ok {
		return
	}
	resters := make([]battery.Rester, len(st.batteries))
	for i, b := range st.batteries {
		r, ok := b.(battery.Rester)
		if !ok {
			return
		}
		resters[i] = r
	}
	st.quiet = quiet
	st.resters = resters
}
