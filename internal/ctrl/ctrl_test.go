package ctrl_test

import (
	"bytes"
	"strings"
	"testing"

	"packetshader/internal/apps"
	"packetshader/internal/core"
	"packetshader/internal/ctrl"
	"packetshader/internal/model"
	"packetshader/internal/pktgen"
	"packetshader/internal/route"
	"packetshader/internal/sim"

	lookupv4 "packetshader/internal/lookup/ipv4"
)

// --- parser ---

const demoScript = `
# demo
@500us  stats
@1ms    route add 10.1.0.0/16 via 3
@1ms    route del 10.2.0.0/16
@1ms    route replace 10.3.0.0/24 via 5
@1500us set chunkcap 32
@1500us set gathermax 1
@1500us set opportunistic off
@2ms    port 2 down
@2.5ms  port 2 up
@3ms    metrics
`

func TestParseScript(t *testing.T) {
	s, err := ctrl.ParseScript(strings.NewReader(demoScript))
	if err != nil {
		t.Fatal(err)
	}
	// The three same-offset route lines coalesce into one batch.
	if got := s.Len(); got != 8 {
		t.Fatalf("Len = %d, want 8", got)
	}
	if got := s.RouteUpdates(); got != 3 {
		t.Fatalf("RouteUpdates = %d, want 3", got)
	}
	if !s.HasRoutes() {
		t.Fatal("HasRoutes = false")
	}
	cmds := s.Commands()
	if cmds[0].Op != ctrl.OpStats || cmds[0].At != 500*sim.Microsecond {
		t.Fatalf("first command = %+v, want stats @500us", cmds[0])
	}
	batch := cmds[1]
	if batch.Op != ctrl.OpRoute || len(batch.Routes) != 3 {
		t.Fatalf("batch = %+v, want 3-route batch", batch)
	}
	wantActs := []ctrl.RouteAction{ctrl.ActAdd, ctrl.ActDel, ctrl.ActReplace}
	for i, act := range wantActs {
		if batch.Routes[i].Act != act {
			t.Errorf("route %d action = %v, want %v", i, batch.Routes[i].Act, act)
		}
	}
	if got := batch.Routes[0].Prefix; got.Len != 16 || uint32(got.Addr) != 0x0a010000 {
		t.Errorf("route 0 prefix = %+v, want 10.1.0.0/16", got)
	}
	if batch.Routes[0].NextHop != 3 {
		t.Errorf("route 0 hop = %d, want 3", batch.Routes[0].NextHop)
	}
	if cmds[7].Op != ctrl.OpMetrics || cmds[7].At != 3*sim.Millisecond {
		t.Fatalf("last command = %+v, want metrics @3ms", cmds[7])
	}
	// @2.5ms decimal offset.
	if cmds[6].At != 2500*sim.Microsecond {
		t.Fatalf("port up offset = %v, want 2.5ms", cmds[6].At)
	}
}

func TestParseScriptSplitRouteBatches(t *testing.T) {
	s, err := ctrl.ParseScript(strings.NewReader(`
@1ms route add 10.0.0.0/8 via 1
@2ms route add 11.0.0.0/8 via 1
@2ms route add 12.0.0.0/8 via 1
`))
	if err != nil {
		t.Fatal(err)
	}
	// Different offsets break the batch: 1 + 2.
	if s.Len() != 2 || s.RouteUpdates() != 3 {
		t.Fatalf("Len=%d RouteUpdates=%d, want 2 and 3", s.Len(), s.RouteUpdates())
	}
}

func TestParseScriptErrors(t *testing.T) {
	for _, bad := range []string{
		"stats",                            // missing @offset
		"@1x stats",                        // bad unit
		"@-1ms stats",                      // negative offset
		"@1ms bogus",                       // unknown command
		"@1ms route add 10.0.0.0/8",        // missing via
		"@1ms route add 10.1.0.0/8 via 1",  // host bits set
		"@1ms route add 300.0.0.0/8 via 1", // bad octet
		"@1ms route add 10.0.0.0/33 via 1", // bad length
		"@1ms route del",                   // missing prefix
		"@1ms set chunkcap zero",           // non-numeric
		"@1ms set chunkcap 0",              // below 1
		"@1ms set opportunistic maybe",     // bad bool
		"@1ms port 1 sideways",             // bad direction
		"@1ms stats now",                   // trailing arg
		"@NaNms stats",                     // not a number
		"@infs stats",                      // infinite
		"@1e300s stats",                    // far beyond int64 picoseconds
		"@1e7s stats",                      // just beyond int64 picoseconds (~106 days)
	} {
		if _, err := ctrl.ParseScript(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseScript(%q): want error", bad)
		}
	}
}

// --- FIB appliers ---

// TestAppliersEquivalent drives the same update batches through the
// incremental and rebuild strategies and checks the resulting routing
// functions agree (and diverge from the untouched base).
func TestAppliersEquivalent(t *testing.T) {
	entries := route.GenerateBGPTable(2000, 16, 9)
	dyn, err := lookupv4.NewDynamic(entries)
	if err != nil {
		t.Fatal(err)
	}
	var rebuilt *lookupv4.Table
	reb, err := ctrl.NewRebuildFIB(entries, func(tb *lookupv4.Table) { rebuilt = tb })
	if err != nil {
		t.Fatal(err)
	}
	base, err := lookupv4.Build(entries)
	if err != nil {
		t.Fatal(err)
	}
	batches := [][]ctrl.RouteUpdate{
		{
			{Act: ctrl.ActAdd, Prefix: route.Prefix{Addr: 0x0a000000, Len: 8}, NextHop: 9},
			{Act: ctrl.ActDel, Prefix: entries[0].Prefix},
		},
		{
			{Act: ctrl.ActReplace, Prefix: entries[1].Prefix, NextHop: 11},
			{Act: ctrl.ActAdd, Prefix: route.Prefix{Addr: 0x0a010200, Len: 24}, NextHop: 12},
		},
	}
	var dynCells, rebCells uint64
	for _, b := range batches {
		dc, err := (&ctrl.DynamicFIB{T: dyn}).ApplyRoutes(b)
		if err != nil {
			t.Fatal(err)
		}
		rc, err := reb.ApplyRoutes(b)
		if err != nil {
			t.Fatal(err)
		}
		dynCells += dc
		rebCells += rc
	}
	if rebuilt == nil {
		t.Fatal("Install hook never ran")
	}
	if rebCells != 2<<24 {
		t.Fatalf("rebuild cells = %d, want 2 full rebuilds (%d)", rebCells, 2<<24)
	}
	if dynCells == 0 || dynCells >= rebCells {
		t.Fatalf("incremental cells = %d, want nonzero and far below %d", dynCells, rebCells)
	}
	diverged := false
	for i := 0; i < 1<<16; i++ {
		addr := route.GenerateBGPTable(1, 16, int64(i))[0].Prefix.Addr
		d, r := dyn.Lookup(addr), rebuilt.Lookup(addr)
		if d != r {
			t.Fatalf("addr %v: incremental hop %d != rebuild hop %d", addr, d, r)
		}
		if d != base.Lookup(addr) {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("updates had no observable effect on any probed address")
	}
}

// --- controller on a live router ---

// testRouter assembles a small dynamic-FIB IPv4 router for controller
// tests. Traffic dsts are drawn from the table, so route churn has an
// observable forwarding effect.
func testRouter(t *testing.T) (*sim.Env, *core.Router, *lookupv4.DynamicTable, []route.Entry) {
	t.Helper()
	entries := route.GenerateBGPTable(2000, 16, 9)
	dyn, err := lookupv4.NewDynamic(entries)
	if err != nil {
		t.Fatal(err)
	}
	env := sim.NewEnv()
	t.Cleanup(env.Close)
	cfg := core.DefaultConfig()
	cfg.PacketSize = 64
	r := core.New(env, cfg, &apps.IPv4Fwd{Table: &dyn.Table, NumPorts: model.NumPorts})
	r.SetSource(&pktgen.UDP4Source{Size: 64, Seed: 9, Table: entries})
	return env, r, dyn, entries
}

func run(env *sim.Env, r *core.Router, d sim.Duration) {
	r.Start()
	env.Run(env.Now() + sim.Time(d))
}

func TestAttachPrechecks(t *testing.T) {
	env, r, dyn, _ := testRouter(t)
	cases := []struct {
		name   string
		script *ctrl.Script
		cfg    ctrl.Config
	}{
		{"route without FIB", ctrl.NewScript(ctrl.RouteDel(0, route.Prefix{Len: 8})), ctrl.Config{}},
		{"empty batch", ctrl.NewScript(ctrl.RouteBatch(0, nil)), ctrl.Config{FIB: &ctrl.DynamicFIB{T: dyn}}},
		{"chunkcap zero", ctrl.NewScript(ctrl.SetChunkCap(0, 0)), ctrl.Config{}},
		{"gathermax zero", ctrl.NewScript(ctrl.SetGatherMax(0, 0)), ctrl.Config{}},
		{"port high", ctrl.NewScript(ctrl.PortAdmin(0, model.NumPorts, false)), ctrl.Config{}},
		{"port negative", ctrl.NewScript(ctrl.PortAdmin(0, -1, false)), ctrl.Config{}},
	}
	for _, c := range cases {
		if _, err := ctrl.Attach(env, r, c.script, c.cfg); err == nil {
			t.Errorf("%s: want attach error", c.name)
		}
	}
}

// TestRouteCommandsChangeForwarding pins that a scripted route delete
// has a real data-path effect (app drops) and that restoring the route
// stops the bleeding — and that the controller accounts both batches.
func TestRouteCommandsChangeForwarding(t *testing.T) {
	env, r, dyn, entries := testRouter(t)
	// Delete a mid-table prefix at 1ms, restore it at 3ms.
	victim := entries[1000]
	script := ctrl.NewScript(
		ctrl.RouteDel(1*sim.Millisecond, victim.Prefix),
		ctrl.RouteAdd(3*sim.Millisecond, victim.Prefix, victim.NextHop),
	)
	var out bytes.Buffer
	ctl, err := ctrl.Attach(env, r, script, ctrl.Config{Out: &out, FIB: &ctrl.DynamicFIB{T: dyn}})
	if err != nil {
		t.Fatal(err)
	}
	run(env, r, 3*sim.Millisecond)
	dropsDuring := r.Stats.Drops
	if ctl.Fired() != 2 || ctl.RoutesApplied() != 2 {
		t.Fatalf("fired=%d applied=%d, want 2/2", ctl.Fired(), ctl.RoutesApplied())
	}
	if len(ctl.Errors()) != 0 {
		t.Fatalf("ctrl errors: %v", ctl.Errors())
	}
	if dropsDuring == 0 {
		t.Fatal("route del caused no app drops — storm had no forwarding effect")
	}
	// Let chunks that were already in flight at the restore instant
	// drain, then require the bleeding has fully stopped.
	env.Run(env.Now() + sim.Time(1*sim.Millisecond))
	settled := r.Stats.Drops
	env.Run(env.Now() + sim.Time(2*sim.Millisecond))
	if after := r.Stats.Drops - settled; after != 0 {
		t.Fatalf("%d drops long after the route was restored, want 0", after)
	}
	for _, want := range []string{"route applied=1", "@1000.000us", "@3000.000us"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestTuningObservable pins that a live gather-max retune reaches the
// master: launches-per-chunk rises once gathering is disabled.
func TestTuningObservable(t *testing.T) {
	env, r, _, _ := testRouter(t)
	script := ctrl.NewScript(
		ctrl.SetGatherMax(2*sim.Millisecond, 1),
		ctrl.SetChunkCap(2*sim.Millisecond, 16),
	)
	if _, err := ctrl.Attach(env, r, script, ctrl.Config{}); err != nil {
		t.Fatal(err)
	}
	run(env, r, 2*sim.Millisecond)
	launches0, chunks0 := r.Stats.GPULaunches, r.Stats.ChunksGPU
	if launches0 == 0 || chunks0 <= launches0 {
		t.Fatalf("before retune: launches=%d chunks=%d, want gathering >1 chunk/launch",
			launches0, chunks0)
	}
	// Let chunks in flight across the retune drain, then measure a
	// steady-state window: no gathering means exactly 1 chunk/launch.
	env.Run(env.Now() + sim.Time(1*sim.Millisecond))
	launches1, chunks1 := r.Stats.GPULaunches, r.Stats.ChunksGPU
	env.Run(env.Now() + sim.Time(2*sim.Millisecond))
	launches2, chunks2 := r.Stats.GPULaunches-launches1, r.Stats.ChunksGPU-chunks1
	if launches2 == 0 || chunks2 != launches2 {
		t.Fatalf("after gathermax=1: launches=%d chunks=%d, want exactly 1 chunk/launch",
			launches2, chunks2)
	}
}

// TestPortAdminDropsCarrier pins that scripted port admin reaches the
// NIC: TX to the downed port is dropped and accounted.
func TestPortAdminDropsCarrier(t *testing.T) {
	env, r, _, _ := testRouter(t)
	var out bytes.Buffer
	script := ctrl.NewScript(
		ctrl.PortAdmin(1*sim.Millisecond, 2, false),
		ctrl.Stats(2*sim.Millisecond),
		ctrl.PortAdmin(3*sim.Millisecond, 2, true),
	)
	if _, err := ctrl.Attach(env, r, script, ctrl.Config{Out: &out}); err != nil {
		t.Fatal(err)
	}
	run(env, r, 4*sim.Millisecond)
	if drops := r.CarrierDrops(); drops == 0 {
		t.Fatal("no carrier drops after scripted port down")
	}
	if !strings.Contains(out.String(), "port 2 down") ||
		!strings.Contains(out.String(), "port 2 up") ||
		!strings.Contains(out.String(), "stats packets=") {
		t.Fatalf("unexpected output:\n%s", out.String())
	}
}

// TestControllerByteIdentity replays the same script against two
// identically seeded routers and requires byte-identical responses —
// the determinism contract of the control plane.
func TestControllerByteIdentity(t *testing.T) {
	runOnce := func() string {
		env, r, dyn, entries := testRouter(t)
		script := ctrl.NewScript(
			ctrl.Stats(500*sim.Microsecond),
			ctrl.RouteDel(1*sim.Millisecond, entries[500].Prefix),
			ctrl.SetChunkCap(1500*sim.Microsecond, 32),
			ctrl.PortAdmin(2*sim.Millisecond, 1, false),
			ctrl.Stats(2500*sim.Microsecond),
		)
		var out bytes.Buffer
		if _, err := ctrl.Attach(env, r, script, ctrl.Config{Out: &out, FIB: &ctrl.DynamicFIB{T: dyn}}); err != nil {
			t.Fatal(err)
		}
		run(env, r, 3*sim.Millisecond)
		return out.String()
	}
	a, b := runOnce(), runOnce()
	if a != b {
		t.Fatalf("replay diverged:\n--- run 1 ---\n%s--- run 2 ---\n%s", a, b)
	}
	if !strings.Contains(a, "stats packets=") {
		t.Fatalf("unexpected output:\n%s", a)
	}
}
