//go:build ignore

// trajectory reads every BENCH_<n>.json result set at the repository root
// and rewrites the "Trajectory" section of EXPERIMENTS.md, between its two
// marker comments: per workload, the median and quartiles of each
// end-to-end metric at every point, and every run more than 1.5× from the
// median of its siblings. Run it from the root of the repository:
//
//	go run scripts/trajectory.go
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

const (
	begin = "<!-- trajectory: written by `go run scripts/trajectory.go`; do not edit by hand -->"
	end   = "<!-- /trajectory -->"
)

type resultSet struct {
	Environment struct{ Commit string }
	Workloads   map[string]struct {
		Seeds    []int
		EndToEnd map[string][]float64 `json:"end_to_end"`
	}
}

func main() {
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	}
	read("BENCHMARK.json", &spec)
	paths, _ := filepath.Glob("BENCH_*.json")
	point := func(p string) int {
		n, _ := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(p, "BENCH_"), ".json"))
		return n
	}
	slices.SortFunc(paths, func(a, b string) int { return point(a) - point(b) })
	sets := make([]resultSet, len(paths))
	for i, p := range paths {
		read(p, &sets[i])
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%s\n## Trajectory\n\nOne row per committed `BENCH_<n>.json` (`bash bench/run.sh -runs 5 -out`): each metric's median over the point's runs, with its quartiles in brackets (the `(n+1)` method `bench/` uses). `commit` is the file's `environment.commit`; from point 40 on it names the parent of the change measured, whose working tree was built.\n", begin)
	var flags []string
	for _, w := range spec.Workloads {
		fmt.Fprintf(&b, "\n**%s**\n\n| point | commit | runs |", w.Name)
		for _, m := range spec.EndToEnd {
			fmt.Fprintf(&b, " %s (%s) |", m.Name, m.Unit)
		}
		b.WriteString("\n|---|---|---|" + strings.Repeat("---|", len(spec.EndToEnd)) + "\n")
		for i, s := range sets {
			r, ok := s.Workloads[w.Name]
			if !ok {
				continue
			}
			fmt.Fprintf(&b, "| %d | `%.7s` | %d |", point(paths[i]), s.Environment.Commit, len(r.Seeds))
			for _, m := range spec.EndToEnd {
				xs := r.EndToEnd[m.Name]
				q1, q2, q3 := quartiles(xs)
				fmt.Fprintf(&b, " %s (%s–%s) |", num(q2), num(q1), num(q3))
			}
			b.WriteString("\n")
			for j, seed := range r.Seeds {
				var off []string
				for _, m := range spec.EndToEnd {
					xs := r.EndToEnd[m.Name]
					x, sib := xs[j], median(slices.Delete(slices.Clone(xs), j, j+1))
					if sib != 0 && (x > 1.5*sib || sib > 1.5*x) {
						off = append(off, fmt.Sprintf("`%s` %s (siblings %s)", m.Name, num(x), num(sib)))
					}
				}
				if off != nil {
					flags = append(flags, fmt.Sprintf("- `%s` %s, seed %d: %s", paths[i], w.Name, seed, strings.Join(off, ", ")))
				}
			}
		}
	}
	b.WriteString("\nRuns more than 1.5× from the median of their siblings:\n\n")
	if len(flags) == 0 {
		b.WriteString("- none\n")
	}
	b.WriteString(strings.Join(flags, "\n"))
	fmt.Fprintf(&b, "\n%s\n", end)

	old, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		log.Fatal(err)
	}
	text := string(old)
	i, j := strings.Index(text, begin), strings.Index(text, end)
	if i < 0 || j < i {
		log.Fatal("EXPERIMENTS.md: the trajectory marker comments are missing")
	}
	text = text[:i] + b.String() + text[j+len(end)+1:]
	if err := os.WriteFile("EXPERIMENTS.md", []byte(text), 0o644); err != nil {
		log.Fatal(err)
	}
}

func read(path string, v any) {
	data, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(data, v)
	}
	if err != nil {
		log.Fatalf("%s: %v", path, err)
	}
}

func median(xs []float64) float64 { _, q2, _ := quartiles(xs); return q2 }

// quartiles interpolates between order statistics at (n+1)/4 steps.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Sorted(slices.Values(xs))
	cut := func(i int) float64 {
		if len(s) < 2 {
			return s[0]
		}
		j := min(max(i*(len(s)+1)/4, 1), len(s)-1)
		d := float64(i*(len(s)+1)-j*4) / 4
		return s[j-1]*(1-d) + s[j]*d
	}
	return cut(1), cut(2), cut(3)
}

// num prints a value with about four significant digits.
func num(x float64) string {
	switch {
	case x >= 1e6:
		return fmt.Sprintf("%.3gM", x/1e6)
	case x >= 1e4:
		return fmt.Sprintf("%.1fk", x/1e3)
	}
	return strconv.FormatFloat(x, 'g', 4, 64)
}
