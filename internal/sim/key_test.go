package sim

import (
	"testing"

	"repro/internal/lbp"
)

// TestCacheKeyCanonicalization: keys ignore request syntax and
// host-side knobs, and respond to every result-affecting field.
func TestCacheKeyCanonicalization(t *testing.T) {
	prog := exitProgram(t)
	base := Spec{Program: prog, Cores: 2, MaxCycles: 10_000, Trace: TraceSpec{Digest: true}}
	key := func(s Spec) string {
		t.Helper()
		k, err := CacheKey(s)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	want := key(base)
	if len(want) != 64 {
		t.Fatalf("key %q is not 64 hex digits", want)
	}

	same := []struct {
		name string
		spec Spec
	}{
		{"identical", base},
		{"simworkers is results-neutral", func() Spec { s := base; s.SimWorkers = 8; return s }()},
		{"fast-forward is results-neutral", func() Spec { s := base; s.NoFastForward = true; return s }()},
		{"explicit equivalent config", func() Spec {
			s := base
			cfg := lbp.DefaultConfig(2)
			s.Config, s.Cores = &cfg, 0
			return s
		}()},
	}
	for _, tc := range same {
		if got := key(tc.spec); got != want {
			t.Errorf("%s: key %s != %s", tc.name, got[:12], want[:12])
		}
	}

	diff := []struct {
		name string
		spec Spec
	}{
		{"cores", func() Spec { s := base; s.Cores = 4; return s }()},
		{"bank bytes", func() Spec { s := base; s.SharedBankBytes = 1 << 15; return s }()},
		{"max cycles", func() Spec { s := base; s.MaxCycles = 20_000; return s }()},
		{"digest off", func() Spec { s := base; s.Trace.Digest = false; return s }()},
		{"ring", func() Spec { s := base; s.Trace.Ring = 16; return s }()},
		{"profile", func() Spec { s := base; s.Profile = true; return s }()},
	}
	for _, tc := range diff {
		if got := key(tc.spec); got == want {
			t.Errorf("%s: result-affecting change kept key %s", tc.name, got[:12])
		}
	}

	// A zero budget resolves to the default budget's key.
	a, b := base, base
	a.MaxCycles = 0
	b.MaxCycles = defaultMaxCycles
	if key(a) != key(b) {
		t.Error("zero MaxCycles does not canonicalize to the default budget")
	}
}

// TestCacheKeyPinned: keys are stable across builds, so a result cache
// filled by an earlier build still hits. A change here invalidates
// every cached result and must version the key instead.
func TestCacheKeyPinned(t *testing.T) {
	for _, tc := range []struct {
		path string
		spec Spec
		want string
	}{
		{"../../testdata/hello.s", Spec{Cores: 4, MaxCycles: 10_000, Trace: TraceSpec{Digest: true}},
			"a2abeecd162f74e85b06195855858f7425f9dd2f58133cda050c820040b2c8a3"},
		{"../../testdata/vecsum.c", Spec{Cores: 2, Trace: TraceSpec{Digest: true, Ring: 4}, Profile: true},
			"771b58416a2b4b22543d70c00b126fa8f5341da508405b0a116c342573b2e2f0"},
	} {
		prog, err := LoadFile(tc.path, tc.spec.Cores, 0)
		if err != nil {
			t.Fatal(err)
		}
		tc.spec.Program = prog
		got, err := CacheKey(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("%s: key %s, want %s", tc.path, got, tc.want)
		}
	}
}

// TestCacheKeyErrors: no program and device-bearing specs are not
// addressable.
func TestCacheKeyErrors(t *testing.T) {
	if _, err := CacheKey(Spec{}); err == nil {
		t.Error("CacheKey accepted a program-less spec")
	}
	spec := Spec{Program: exitProgram(t), Devices: []lbp.Device{nil}}
	if _, err := CacheKey(spec); err == nil {
		t.Error("CacheKey accepted a spec with devices")
	}
}
