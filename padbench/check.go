package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"

	"repro/internal/padd"
	"repro/internal/sim"
)

// resultDiff lists the fields in which an online session's result
// differs from the offline run that recorded its demand, under padd's
// Replay rules: Key names the run and is skipped, and so is the
// recording's AttackUtil (the online engine hosts no virus). Every other
// field must match bit for bit.
func resultDiff(off, on *sim.Result) []string {
	a, b := *off, *on
	a.Key, b.Key = "", ""
	a.Recording, b.Recording = nil, nil
	var bad []string
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		if !reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
			bad = append(bad, fmt.Sprintf("%s: offline %v, online %v",
				va.Type().Field(i).Name, va.Field(i).Interface(), vb.Field(i).Interface()))
		}
	}
	if (off.Recording == nil) != (on.Recording == nil) {
		bad = append(bad, "Recording: present on one side only")
	} else if off.Recording != nil {
		ra, rb := *off.Recording, *on.Recording
		ra.AttackUtil, rb.AttackUtil = nil, nil
		if !reflect.DeepEqual(ra, rb) {
			bad = append(bad, "Recording: series differ")
		}
	}
	return bad
}

// accountingDiff checks one session's lossless-drain invariant: every
// published tick came from an accepted sample or a coast, nothing was
// discarded, nothing coasted (sessions are not on wall clock), and all
// ticks samples arrived.
func accountingDiff(st padd.SessionStatus, ticks int) string {
	switch {
	case st.Ticks != st.Accepted+st.Coasts-st.Discarded:
		return fmt.Sprintf("%s: ticks %d != accepted %d + coasts %d - discarded %d",
			st.ID, st.Ticks, st.Accepted, st.Coasts, st.Discarded)
	case st.Discarded != 0:
		return fmt.Sprintf("%s: %d samples discarded", st.ID, st.Discarded)
	case st.Coasts != 0:
		return fmt.Sprintf("%s: %d coast ticks", st.ID, st.Coasts)
	case st.Ticks != int64(ticks):
		return fmt.Sprintf("%s: %d ticks, want %d", st.ID, st.Ticks, ticks)
	}
	return ""
}

// check runs the online checks that need live sessions.
func (r *onlineRun) check(res *result) {
	total := r.nA + r.nB
	res.Attempted = int64(total) * int64(r.sp.sessions)
	var failed int64
	for _, st := range append(append([]*connStats(nil), r.gen...), r.genB...) {
		failed += st.rejected
	}
	if failed > 0 {
		res.fail("%d samples refused by the daemon", failed)
	}
	bad := 0
	var ticks int64
	for _, s := range r.f.sessions {
		st := s.Status()
		ticks += st.Ticks
		if msg := accountingDiff(st, total); msg != "" {
			if bad < 3 {
				res.fail("accounting: %s", msg)
			}
			bad++
		}
	}
	if missing := res.Attempted - ticks; missing > failed {
		failed = missing
	}
	res.Failed = failed
	if bad > 0 {
		res.fail("accounting broken on %d sessions", bad)
	}
	if r.sp.virusTraces > 0 {
		if r.in.maxLevel < 2 {
			res.fail("the virus traces never drove the offline engine to level 2 (run longer)")
		}
		if r.maxLevel < int(r.in.maxLevel) {
			res.fail("no session reached security level %d online (highest seen %d)", r.in.maxLevel, r.maxLevel)
		}
		if r.in.flags == 0 {
			res.fail("the CUSUM detector flagged nothing on the virus traces")
		}
	}
	if r.scrapes != nil {
		if len(r.scrapes.metricsMS) == 0 {
			res.fail("no scrape completed during phase A")
		}
		for _, b := range r.scrapes.bad {
			res.fail("scrape: %s", b)
		}
	}
}

// checkResults stops every session and compares its final result with
// the offline run whose demand it was fed.
func (r *onlineRun) checkResults(res *result) error {
	if err := r.f.mgr.Shutdown(context.Background()); err != nil {
		return err
	}
	bad := 0
	for i, s := range r.f.sessions {
		if diff := resultDiff(r.in.results[i%r.sp.traces], s.Result()); len(diff) > 0 {
			if bad < 3 {
				res.fail("session %s result differs from its offline run: %v", r.f.ids[i], diff)
			}
			bad++
		}
	}
	if bad > 0 {
		res.fail("%d of %d session results differ from the offline engine", bad, len(r.f.sessions))
		res.Failed += int64(bad) * int64(r.nA+r.nB)
	}
	return nil
}

// dirDiff compares every file of want (except those in skip) with the
// file of the same name in got, byte for byte, and reports missing,
// extra and differing files.
func dirDiff(want, got string, skip map[string]bool) ([]string, error) {
	names := func(dir string) (map[string]bool, error) {
		ents, err := os.ReadDir(dir)
		if err != nil {
			return nil, err
		}
		out := map[string]bool{}
		for _, e := range ents {
			if !e.IsDir() && !skip[e.Name()] {
				out[e.Name()] = true
			}
		}
		return out, nil
	}
	w, err := names(want)
	if err != nil {
		return nil, err
	}
	g, err := names(got)
	if err != nil {
		return nil, err
	}
	var bad []string
	for n := range g {
		if !w[n] {
			bad = append(bad, n+": not in the reference outputs")
		}
	}
	for n := range w {
		if !g[n] {
			bad = append(bad, n+": missing")
			continue
		}
		a, err := os.ReadFile(filepath.Join(want, n))
		if err != nil {
			return nil, err
		}
		b, err := os.ReadFile(filepath.Join(got, n))
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(a, b) {
			bad = append(bad, n+": differs")
		}
	}
	sort.Strings(bad)
	return bad, nil
}
