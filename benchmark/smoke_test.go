package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

// contract mirrors BENCHMARK.json.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return c
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestContractMatchesTables holds BENCHMARK.json and the tables in the
// program to each other, and both to the contract's limits.
func TestContractMatchesTables(t *testing.T) {
	c := readContract(t)
	if n := len(c.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(c.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(c.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	if c.RunSeconds < 1 || c.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1 to 60", c.RunSeconds)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(c.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	unique := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside the contract's alphabet", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, w := range c.Workloads {
		unique(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	check := func(kind string, got []contractMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json names %d metrics, the program has %d", kind, len(got), len(want))
		}
		for i, m := range got {
			unique(m.Name)
			d := want[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s metric %d: BENCHMARK.json has %s/%s/%s, the program %s/%s/%s", kind, i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
			}
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("%s: unit %q is outside the contract's alphabet", m.Name, m.Unit)
			}
			if m.Better != "higher" && m.Better != "lower" {
				t.Errorf("%s: better is %q", m.Name, m.Better)
			}
			switch {
			case !bounded && m.Bound != nil:
				t.Errorf("%s: a per-layer metric has no bound", m.Name)
			case bounded && (m.Bound == nil || *m.Bound != d.bound || *m.Bound < 0 || *m.Bound > 0.25):
				t.Errorf("%s: bound %v, the program has %v (at most 0.25)", m.Name, m.Bound, d.bound)
			}
		}
	}
	check("end_to_end", c.EndToEnd, endToEnd, true)
	check("per_layer", c.PerLayer, perLayer, false)
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
}

// resultLine is the one JSON object per workload the driver reads.
type resultLine struct {
	Correct   *bool `json:"correct"`
	Attempted *int  `json:"attempted"`
	Failed    *int  `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"metrics"`
}

// TestSmoke runs every workload under -quick, untraced and traced, and
// checks that what is emitted is exactly what BENCHMARK.json names, with
// finite values and no failed operation.
func TestSmoke(t *testing.T) {
	c := readContract(t)
	for _, mode := range []struct {
		name string
		args []string
		want []contractMetric
	}{
		{"untraced", nil, c.EndToEnd},
		{"traced", []string{"-trace"}, c.PerLayer},
	} {
		t.Run(mode.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			args := append([]string{"-quick", "-seed", "7", "-out", t.TempDir()}, mode.args...)
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit code %d\n%s", code, stderr.String())
			}
			var lines []resultLine
			sc := bufio.NewScanner(&stdout)
			sc.Buffer(nil, 1<<20)
			for sc.Scan() {
				if !strings.HasPrefix(sc.Text(), "{") {
					continue
				}
				var l resultLine
				dec := json.NewDecoder(strings.NewReader(sc.Text()))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&l); err != nil {
					t.Fatalf("result line %q: %v", sc.Text(), err)
				}
				lines = append(lines, l)
			}
			if len(lines) != len(c.Workloads) {
				t.Fatalf("%d result lines for %d workloads", len(lines), len(c.Workloads))
			}
			for i, l := range lines {
				w := c.Workloads[i].Name
				if l.Correct == nil || l.Attempted == nil || l.Failed == nil {
					t.Fatalf("%s: result line lacks correct, attempted or failed", w)
				}
				if !*l.Correct || *l.Failed != 0 || *l.Attempted < 1 {
					t.Errorf("%s: correct=%v attempted=%d failed=%d", w, *l.Correct, *l.Attempted, *l.Failed)
				}
				if len(l.Metrics) != len(mode.want) {
					t.Errorf("%s: %d metrics emitted, BENCHMARK.json names %d", w, len(l.Metrics), len(mode.want))
				}
				for _, m := range mode.want {
					got, ok := l.Metrics[m.Name]
					switch {
					case !ok || got.Value == nil:
						t.Errorf("%s: metric %s is not emitted", w, m.Name)
					case got.Unit != m.Unit:
						t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", w, m.Name, got.Unit, m.Unit)
					case math.IsNaN(*got.Value) || math.IsInf(*got.Value, 0):
						t.Errorf("%s: metric %s is not finite", w, m.Name)
					case m.Bound != nil && *got.Value <= 0:
						t.Errorf("%s: end-to-end metric %s is %v, want a positive number", w, m.Name, *got.Value)
					}
				}
			}
		})
	}
}
