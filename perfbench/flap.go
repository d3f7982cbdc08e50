package main

import (
	"fmt"
	"math/rand"

	"packetshader/internal/ctrl"
	"packetshader/internal/packet"
	"packetshader/internal/route"
	"packetshader/internal/sim"

	lookupv4 "packetshader/internal/lookup/ipv4"
)

// flapSpec shapes the route-flap churn: every slice, a control script
// withdraws the next routes prefixes of a seeded permutation of the
// table in batches evenly spread over the first half of the slice,
// then re-announces them, with the next hop moved on by one, over the
// second half — a BGP peer going down and coming back on another path.
type flapSpec struct {
	routes  int // prefixes flapped per slice
	batches int // withdraw batches per slice (and as many re-announce)
}

// flapper generates the scripts and mirrors the routes they install.
type flapper struct {
	spec    *flapSpec
	slice   sim.Duration
	entries []route.Entry // routes installed at the end of the slice
	flapped []int         // entries withdrawn by the last script
	perm    []int
	next    int
	applied uint64 // route updates scripted so far
	seed    int64
}

func newFlapper(spec *flapSpec, slice sim.Duration, entries []route.Entry, seed int64) *flapper {
	return &flapper{
		spec:    spec,
		slice:   slice,
		entries: append([]route.Entry(nil), entries...),
		perm:    rand.New(rand.NewSource(seed)).Perm(len(entries)),
		seed:    seed,
	}
}

// step is the spacing of the script's batches.
func (f *flapper) step() sim.Duration { return f.slice / sim.Duration(2*f.spec.batches) }

// attach schedules the next slice's flap on the router.
func (f *flapper) attach(g *rig) (*ctrl.Controller, error) {
	per := f.spec.routes / f.spec.batches
	f.flapped = f.flapped[:0]
	for i := 0; i < f.spec.routes; i++ {
		f.flapped = append(f.flapped, f.perm[f.next])
		f.next = (f.next + 1) % len(f.perm)
	}
	script := ctrl.NewScript()
	for b := 0; b < f.spec.batches; b++ {
		var del, add []ctrl.RouteUpdate
		for _, i := range f.flapped[b*per : (b+1)*per] {
			e := &f.entries[i]
			e.NextHop = (e.NextHop + 1) % 64
			del = append(del, ctrl.RouteUpdate{Act: ctrl.ActDel, Prefix: e.Prefix})
			add = append(add, ctrl.RouteUpdate{Act: ctrl.ActAdd, Prefix: e.Prefix, NextHop: e.NextHop})
		}
		script.Add(ctrl.RouteBatch(sim.Duration(b)*f.step(), del))
		script.Add(ctrl.RouteBatch(sim.Duration(f.spec.batches+b)*f.step(), add))
		f.applied += uint64(2 * per)
	}
	return ctrl.Attach(g.inst.Env, g.inst.Router, script, ctrl.Config{FIB: g.fib})
}

// check runs one more, untimed, flap slice and compares the live
// dynamic table with a fresh lookupv4.Build of the routes that should
// be installed twice: between the last withdrawal and the first
// re-announcement (in scheduler context, where no packet is in a
// lookup), and after the slice.
func (f *flapper) check(g *rig) error {
	ctl, err := f.attach(g)
	if err != nil {
		return err
	}
	withdrawn := map[int]bool{}
	for _, i := range f.flapped {
		withdrawn[i] = true
	}
	var mid []route.Entry
	for i, e := range f.entries {
		if !withdrawn[i] {
			mid = append(mid, e)
		}
	}
	var midErr error
	env := g.inst.Env
	env.At(env.Now()+sim.Time(sim.Duration(f.spec.batches)*f.step()-f.step()/2), func() {
		midErr = f.compare(g, mid, "with the flapped routes withdrawn")
	})
	if _, err := g.runSlice(); err != nil {
		return err
	}
	if errs := ctl.Errors(); len(errs) > 0 {
		return fmt.Errorf("route flap: control script: %v", errs)
	}
	if midErr != nil {
		return midErr
	}
	return f.compare(g, f.entries, "after the last batch")
}

// compare checks the dynamic table against a fresh build of routes on
// the first and last address of every flapped prefix and on seeded
// random addresses.
func (f *flapper) compare(g *rig, routes []route.Entry, when string) error {
	ref, err := lookupv4.Build(routes)
	if err != nil {
		return fmt.Errorf("route flap: reference build: %w", err)
	}
	var addrs []packet.IPv4Addr
	for _, i := range f.flapped {
		p := f.entries[i].Prefix
		addrs = append(addrs, p.Addr, packet.IPv4Addr(uint32(p.Addr)|^p.Mask()))
	}
	rng := rand.New(rand.NewSource(f.seed))
	for i := 0; i < 1<<16; i++ {
		addrs = append(addrs, packet.IPv4Addr(rng.Uint32()))
	}
	for _, a := range addrs {
		if got, want := g.dyn.Lookup(a), ref.Lookup(a); got != want {
			return fmt.Errorf("route flap: %s, %v looks up next hop %d, a fresh build gives %d", when, a, got, want)
		}
	}
	return nil
}
