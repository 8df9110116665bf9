package main

// Self-test of the benchmark: tiny versions of every workload print
// every metric with its unit, a corrupted expectation fails the run,
// the seeded job list is reproducible, and BENCHMARK.json names exactly
// the metrics and workloads implemented here.
//
//	cd perfbench && go test ./...

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// tinyRun runs one workload in-process with the smallest inputs.
func tinyRun(t *testing.T, workload, trace string, extra ...string) (int, report, string) {
	t.Helper()
	t.Setenv("CARGO_TARGET_DIR", t.TempDir())
	var stdout, stderr bytes.Buffer
	args := append([]string{"--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace, "--tiny"}, extra...)
	code := run(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatalf("%s trace %s: last line is not the result JSON: %v\nstdout:\n%s\nstderr:\n%s",
			workload, trace, err, stdout.String(), stderr.String())
	}
	return code, rep, stdout.String()
}

func TestEveryMetricPrintedWithUnit(t *testing.T) {
	for _, w := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			code, rep, out := tinyRun(t, w, trace)
			if code != 0 || !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Fatalf("%s trace %s: exit %d, report %+v\n%s", w, trace, code, rep, out)
			}
			want := endToEnd
			if trace == "1" {
				want = perLayer()
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace %s: %d metrics, want %d", w, trace, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("%s trace %s: metric %s = %+v, want unit %q", w, trace, m.name, got, m.unit)
				}
				if trace == "0" && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, m.name, got.Value)
				}
			}
		}
	}
}

func TestCorruptedDigestFails(t *testing.T) {
	for _, w := range workloadNames() {
		code, rep, out := tinyRun(t, w, "0", "--corrupt-oracle")
		if code == 0 || rep.Correct || rep.Failed == 0 {
			t.Errorf("%s: a corrupted expected digest still passed: exit %d, report %+v\n%s", w, code, rep, out)
		}
	}
}

var hashLine = regexp.MustCompile(`mix: hash ([0-9a-f]{16}) of the first`)

func TestSameSeedSameJobList(t *testing.T) {
	var hashes []string
	for i := 0; i < 2; i++ {
		_, _, out := tinyRun(t, "serve-fleet", "0")
		m := hashLine.FindStringSubmatch(out)
		if m == nil {
			t.Fatalf("no job-list hash printed:\n%s", out)
		}
		hashes = append(hashes, m[1])
	}
	if hashes[0] != hashes[1] {
		t.Fatalf("same seed, different job lists: %v", hashes)
	}
	a, err := newMix(7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newMix(8)
	if err != nil {
		t.Fatal(err)
	}
	if a.hash != hashes[0] || a.hash == b.hash {
		t.Fatalf("hash of seed 7 %s (printed %s), of seed 8 %s", a.hash, hashes[0], b.hash)
	}
}

func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, implemented %v", names, workloadNames())
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, benchmark %s/%s",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer())
}
