package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// printSelfTimes prints the traced-run report: per span name the count,
// the total and self time, and the median span duration.
func printSelfTimes(w io.Writer, rows []SelfTime) {
	fmt.Fprintf(w, "%-44s %9s %12s %12s %12s\n", "span", "count", "total_ms", "self_ms", "median_us")
	layers := map[string][2]int64{}
	for _, r := range rows {
		fmt.Fprintf(w, "%-44s %9d %12.3f %12.3f %12.3f\n", r.Name, r.Count,
			float64(r.TotalNs)/1e6, float64(r.SelfNs)/1e6, float64(r.MedianNs)/1e3)
		layer := r.Name
		if i := strings.IndexByte(layer, '.'); i > 0 {
			layer = layer[:i]
		}
		l := layers[layer]
		l[0] += int64(r.Count)
		l[1] += r.SelfNs
		layers[layer] = l
	}
	names := make([]string, 0, len(layers))
	for k := range layers {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "layer %-38s %9d %12s %12.3f\n", k, layers[k][0], "", float64(layers[k][1])/1e6)
	}
}

// readRecords reads a file of run records (one JSON object per line).
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var r record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(xs, n=4) computes them (the
// "exclusive" method).
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(j int) float64 {
		m := float64(n + 1)
		pos := float64(j) * m / 4
		k := int(pos)
		frac := pos - float64(k)
		switch {
		case k < 1:
			return s[0]
		case k >= n:
			return s[n-1]
		}
		return s[k-1] + frac*(s[k]-s[k-1])
	}
	return at(1), median(s), at(3)
}

// printTable prints the README reference table: for every workload and
// metric, the median over the recorded runs and the spread (third minus
// first quartile, as a share of the median), plus the runs' attempted and
// failed counts. End-to-end metrics come from untraced runs, per-layer
// metrics from traced runs.
func printTable(w io.Writer, path string) error {
	recs, err := readRecords(path)
	if err != nil {
		return err
	}
	type key struct {
		workload string
		trace    bool
	}
	groups := map[key][]record{}
	var workloads []string
	for _, r := range recs {
		k := key{r.Workload, r.Trace}
		if _, ok := groups[key{r.Workload, false}]; !ok {
			if _, ok := groups[key{r.Workload, true}]; !ok {
				workloads = append(workloads, r.Workload)
			}
		}
		groups[k] = append(groups[k], r)
	}
	sort.Strings(workloads)
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			rs := groups[key{wl, traced}]
			if len(rs) == 0 {
				continue
			}
			kind := "end-to-end, untraced runs"
			if traced {
				kind = "per-layer, traced runs"
			}
			correct := 0
			var att, fail int64
			for _, r := range rs {
				if r.Correct {
					correct++
				}
				att += r.Attempted
				fail += r.Failed
			}
			fmt.Fprintf(w, "\n**%s** (%s): %d runs, seeds %s, %d s each, nproc %d, %s; %d correct; attempted %d, failed %d in all\n\n",
				wl, kind, len(rs), seedList(rs), rs[0].Seconds, rs[0].NProc, rs[0].GoVersion, correct, att, fail)
			fmt.Fprintln(w, "| metric | unit | median | q1 | q3 | spread |")
			fmt.Fprintln(w, "|---|---|---:|---:|---:|---:|")
			names := map[string]bool{}
			for _, r := range rs {
				for k := range r.Metrics {
					names[k] = true
				}
			}
			sorted := make([]string, 0, len(names))
			for k := range names {
				if traced == isE2E(k) {
					continue
				}
				sorted = append(sorted, k)
			}
			sort.Strings(sorted)
			for _, k := range sorted {
				var xs []float64
				for _, r := range rs {
					if v, ok := r.Metrics[k]; ok {
						xs = append(xs, v)
					}
				}
				q1, med, q3 := quartiles(xs)
				spread := "-"
				if med != 0 {
					spread = fmt.Sprintf("%.1f%%", 100*(q3-q1)/abs(med))
				}
				fmt.Fprintf(w, "| %s | %s | %s | %s | %s | %s |\n", k, units[k], num(med), num(q1), num(q3), spread)
			}
		}
	}
	return nil
}

// isE2E reports whether a metric is end-to-end (as opposed to per-layer).
func isE2E(name string) bool { return !strings.Contains(name, ".") }

func seedList(rs []record) string {
	seeds := make([]int64, 0, len(rs))
	for _, r := range rs {
		seeds = append(seeds, r.Seed)
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	if len(seeds) > 2 && seeds[len(seeds)-1]-seeds[0] == int64(len(seeds)-1) {
		return fmt.Sprintf("%d-%d", seeds[0], seeds[len(seeds)-1])
	}
	parts := make([]string, len(seeds))
	for i, s := range seeds {
		parts[i] = fmt.Sprint(s)
	}
	return strings.Join(parts, ",")
}

func num(v float64) string {
	switch a := abs(v); {
	case a >= 1000:
		return fmt.Sprintf("%.0f", v)
	case a >= 10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
