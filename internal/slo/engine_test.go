package slo

import (
	"math"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/rng"
)

// testConfig is a small, fast geometry: 10-unit windows, 2-window fast burn,
// 4-window slow burn.
func testConfig(spec Spec) Config {
	return Config{Spec: spec, Window: 10, FastWindows: 2, SlowWindows: 4}
}

func burnOnly(target float64) Spec {
	var s Spec
	for i := range s.Classes {
		s.Classes[i].MissRatio = target
	}
	return s
}

// alerts filters the collected stream down to alert transitions.
func alerts(col *obs.Collector) []obs.Event {
	var out []obs.Event
	for _, ev := range col.Events() {
		if ev.Kind == obs.KindAlertFire || ev.Kind == obs.KindAlertResolve {
			out = append(out, ev)
		}
	}
	return out
}

func TestParseSpec(t *testing.T) {
	cases := []struct {
		in      string
		wantErr bool
		check   func(Spec) bool
	}{
		{"default", false, func(s Spec) bool { return s.Classes[0].MissRatio == 0.05 }},
		{"miss=0.1", false, func(s Spec) bool {
			return s.Classes[0].MissRatio == 0.1 && s.Classes[2].MissRatio == 0.1
		}},
		{"heavy:miss=0.01", false, func(s Spec) bool {
			return s.Classes[2].MissRatio == 0.01 && s.Classes[0].MissRatio == 0
		}},
		{"miss=0.1;heavy:miss=0.01,p95=5", false, func(s Spec) bool {
			return s.Classes[0].MissRatio == 0.1 && s.Classes[2].MissRatio == 0.01 &&
				s.Classes[2].TardinessP95 == 5
		}},
		{"*:p99=200,queue=50", false, func(s Spec) bool {
			return s.Classes[1].ResponseP99 == 200 && s.Classes[1].QueueBound == 50
		}},
		{"", true, nil},
		{"miss", true, nil},
		{"miss=0", true, nil},
		{"miss=1.5", true, nil},
		{"bogus=1", true, nil},
		{"giant:miss=0.1", true, nil},
		{"miss=abc", true, nil},
		{";", true, nil},
		{"miss=NaN,p99=5", true, nil},
		{"p95=Inf", true, nil},
		{"heavy:queue=-Inf", true, nil},
	}
	for _, tc := range cases {
		spec, err := ParseSpec(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParseSpec(%q): want error, got %+v", tc.in, spec)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", tc.in, err)
			continue
		}
		if !tc.check(spec) {
			t.Errorf("ParseSpec(%q): unexpected spec %+v", tc.in, spec)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	good := testConfig(burnOnly(0.1))
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Spec: burnOnly(0.1), Window: -1},
		{Spec: burnOnly(0.1), FastWindows: 5, SlowWindows: 3},
		{Spec: burnOnly(0.1), FastWindows: 4, SlowWindows: 4},
		{}, // no rule enabled
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, cfg)
		}
	}
	// Non-finite values fail every range check silently; Validate names
	// the field instead.
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		cfg  Config
		want string
	}{
		{Config{Spec: burnOnly(0.1), Window: nan}, "window"},
		{Config{Spec: burnOnly(0.1), Window: inf}, "window"},
		{Config{Spec: Spec{Classes: [NumClasses]Target{{MissRatio: 0.1}, {TardinessP95: inf}}}}, "medium p95 target"},
		{Config{Spec: Spec{Classes: [NumClasses]Target{{MissRatio: nan, QueueBound: 5}}}}, "light miss target"},
	} {
		if err := tc.cfg.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Validate(%+v) = %v, want error naming %q", tc.cfg, err, tc.want)
		}
	}
}

// TestBurnFireResolve drives the burn rule through a full fire/resolve
// cycle: hot windows burn the budget at 5x target, then healthy windows
// clear it after the hysteresis hold.
func TestBurnFireResolve(t *testing.T) {
	col := &obs.Collector{}
	eng := NewEngine(testConfig(burnOnly(0.1)), "", nil)
	eng.Bind(col)

	// Three hot windows: 10 completions each, half of them missing.
	// Window miss ratio 0.5 => burn 5 >= threshold 2 on both windows.
	tick := 0.0
	for w := 0; w < 3; w++ {
		for i := 0; i < 10; i++ {
			eng.Advance(tick)
			eng.Arrive(0)
			tard := 0.0
			if i%2 == 0 {
				tard = 3
			}
			eng.Complete(0, tard, 5)
			tick++
		}
	}
	eng.Advance(tick) // t=30: close window 2
	got := alerts(col)
	if len(got) != 1 || got[0].Kind != obs.KindAlertFire {
		t.Fatalf("want one alert_fire after hot windows, got %+v", got)
	}
	if got[0].Detail != "light/burn" {
		t.Fatalf("alert detail = %q, want light/burn", got[0].Detail)
	}
	if got[0].Time != 10 {
		// Both windows of the fast burn are covered by the first closed
		// window early in the run, so the alert fires at the first
		// boundary — the lead-time property the bench gate checks.
		t.Fatalf("alert fired at t=%v, want 10", got[0].Time)
	}
	if st := eng.State(); st.ActiveAlerts != 1 || !st.Burning {
		t.Fatalf("state after fire = %+v", st)
	}

	// Healthy windows: completions with no misses until the fast window
	// drains and the resolve hold elapses.
	for w := 0; w < 5; w++ {
		for i := 0; i < 10; i++ {
			eng.Advance(tick)
			eng.Arrive(0)
			eng.Complete(0, 0, 5)
			tick++
		}
	}
	eng.Advance(tick)
	got = alerts(col)
	if len(got) != 2 || got[1].Kind != obs.KindAlertResolve {
		t.Fatalf("want fire then resolve, got %+v", got)
	}
	if got[1].Time <= got[0].Time {
		t.Fatalf("resolve at t=%v does not follow fire at t=%v", got[1].Time, got[0].Time)
	}
	st := eng.State()
	if st.ActiveAlerts != 0 || st.Fires != 1 || st.Resolves != 1 {
		t.Fatalf("state after resolve = %+v", st)
	}
}

// TestCeilingRule exercises the p95-tardiness ceiling: it fires only after
// FastWindows consecutive breached windows, so a single bad window pages
// nobody.
func TestCeilingRule(t *testing.T) {
	var spec Spec
	spec.Classes[0].TardinessP95 = 5
	col := &obs.Collector{}
	eng := NewEngine(testConfig(spec), "", nil)
	eng.Bind(col)

	bad := func(start float64) {
		for i := 0; i < 8; i++ {
			eng.Advance(start + float64(i))
			eng.Arrive(0)
			eng.Complete(0, 20, 25) // p95 tardiness 20 > ceiling 5
		}
	}
	good := func(start float64) {
		for i := 0; i < 8; i++ {
			eng.Advance(start + float64(i))
			eng.Arrive(0)
			eng.Complete(0, 0, 5)
		}
	}

	bad(0)
	good(10)
	eng.Advance(30)
	if got := alerts(col); len(got) != 0 {
		t.Fatalf("one bad window must not fire, got %+v", got)
	}
	bad(30)
	bad(40)
	eng.Advance(50)
	got := alerts(col)
	if len(got) != 1 || got[0].Kind != obs.KindAlertFire || got[0].Detail != "light/p95_tardiness" {
		t.Fatalf("want p95_tardiness fire after two bad windows, got %+v", got)
	}
}

// TestQueueRule exercises queue-boundedness: backlog above the bound at
// consecutive window boundaries fires; draining resolves.
func TestQueueRule(t *testing.T) {
	var spec Spec
	spec.Classes[2].QueueBound = 3
	col := &obs.Collector{}
	eng := NewEngine(testConfig(spec), "", nil)
	eng.Bind(col)

	for i := 0; i < 8; i++ {
		eng.Advance(float64(i))
		eng.Arrive(2)
	}
	eng.Advance(30) // boundaries at 10, 20, 30 all see backlog 8 > 3
	got := alerts(col)
	if len(got) != 1 || got[0].Detail != "heavy/queue" {
		t.Fatalf("want heavy/queue fire, got %+v", got)
	}
	for i := 0; i < 8; i++ {
		eng.Complete(2, 0, 1)
	}
	eng.Advance(60)
	got = alerts(col)
	if len(got) != 2 || got[1].Kind != obs.KindAlertResolve {
		t.Fatalf("want queue resolve after drain, got %+v", got)
	}
}

// TestInstanceEngine checks the fleet labeling: detail prefixes and inst
// gauge labels keep per-instance engines distinct in one registry.
func TestInstanceEngine(t *testing.T) {
	reg := obs.NewRegistry()
	col := &obs.Collector{}
	eng := NewEngine(testConfig(burnOnly(0.1)), "3", reg)
	eng.Bind(col)
	for i := 0; i < 10; i++ {
		eng.Advance(float64(i))
		eng.Arrive(1)
		eng.Complete(1, 1, 2) // every completion misses
	}
	eng.Advance(10)
	got := alerts(col)
	if len(got) != 1 || got[0].Detail != "3:medium/burn" {
		t.Fatalf("want instance-prefixed detail, got %+v", got)
	}
	var sb strings.Builder
	if err := obs.WritePrometheus(&sb, reg); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `asets_slo_burn_ratio{class="medium",inst="3"}`) {
		t.Fatalf("missing inst-labeled burn gauge in:\n%s", out)
	}
	if strings.Contains(out, "# TYPE asets_slo_burn_ratio{") {
		t.Fatalf("labeled gauge leaked its label block into a TYPE header:\n%s", out)
	}
}

// TestStatePartialWindow: the open partial window is never evaluated, so a
// run shorter than one window produces no alerts and no closed windows.
func TestStatePartialWindow(t *testing.T) {
	col := &obs.Collector{}
	eng := NewEngine(testConfig(burnOnly(0.1)), "", nil)
	eng.Bind(col)
	for i := 0; i < 5; i++ {
		eng.Advance(float64(i))
		eng.Arrive(0)
		eng.Complete(0, 2, 3)
	}
	eng.Finish()
	if got := alerts(col); len(got) != 0 {
		t.Fatalf("partial window fired alerts: %+v", got)
	}
	if st := eng.State(); st.Windows != 0 {
		t.Fatalf("windows = %d, want 0", st.Windows)
	}
}

// burnOver is the reference for the engine's running window sums: the
// class's miss-ratio burn over the last k closed windows, summed from the
// history ring, where last is the index of the last closed window. Windows
// that never happened (run shorter than k windows) contribute nothing; zero
// completions means zero burn.
func burnOver(c *classState, last int64, k int, target float64) float64 {
	closed := last + 1 // windows closed including the one at index last
	if int64(k) > closed {
		k = int(closed)
	}
	var done, miss uint64
	for i := 0; i < k; i++ {
		w := c.hist[int((last-int64(i))%int64(len(c.hist)))]
		done += w.done
		miss += w.miss
	}
	if done == 0 {
		return 0
	}
	return float64(miss) / float64(done) / target
}

// TestRunningBurnMatchesBurnOver: over random completion streams, window
// geometries and targets, the fast and slow burn ratios read at every
// boundary from the running sums (e.win is then the open window, so the
// last closed one is e.win-1) equal, bit for bit, the ratios summed
// afresh over the history ring — including boundaries crossed several at a
// time and runs shorter than the slow window. A class without a burn rule
// keeps its sums too.
func TestRunningBurnMatchesBurnOver(t *testing.T) {
	r := rng.New(11)
	checked := 0
	for trial := 0; trial < 200; trial++ {
		fast := r.IntRange(1, 5)
		cfg := Config{Spec: burnOnly(r.Uniform(0.01, 0.5)), Window: 10,
			FastWindows: fast, SlowWindows: fast + r.IntRange(1, 12)}
		cfg.Spec.Classes[1].MissRatio = 0
		e := NewEngine(cfg, "", nil)
		now := 0.0
		for step, steps := 0, r.IntRange(1, 400); step < steps; step++ {
			now += r.Exp(0.3)
			if r.Bool(0.02) {
				now += r.Uniform(0, 200) // an idle stretch: several empty windows at once
			}
			e.Advance(now)
			for ci := range e.classes {
				c := &e.classes[ci]
				target := cfg.Spec.Classes[ci].MissRatio
				for _, w := range []struct {
					k    int
					sum  winCount
					burn float64
				}{{cfg.FastWindows, c.fast, c.fastBurn}, {cfg.SlowWindows, c.slow, c.slowBurn}} {
					if got := burnOver(c, e.win-1, w.k, 1); got != w.sum.burn(1) {
						t.Fatalf("trial %d, window %d, class %d: the running sum over %d windows %+v burns %v, the ring %v",
							trial, e.win, ci, w.k, w.sum, w.sum.burn(1), got)
					}
					if target == 0 {
						continue
					}
					if got := burnOver(c, e.win-1, w.k, target); got != w.burn {
						t.Fatalf("trial %d, window %d, class %d: burn over %d windows is %v from the running sums, %v from the ring",
							trial, e.win, ci, w.k, w.burn, got)
					}
					checked++
				}
			}
			class := r.Intn(NumClasses)
			e.Arrive(class)
			tardiness := 0.0
			if r.Bool(0.3) {
				tardiness = r.Exp(1)
			}
			e.Complete(class, tardiness, tardiness+1)
		}
	}
	if checked < 1000 {
		t.Fatalf("only %d burn ratios checked", checked)
	}
}
