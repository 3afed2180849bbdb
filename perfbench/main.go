// Command perfbench is the repository's end-to-end benchmark. It builds a
// broker overlay from the public core, broker and transport APIs, drives
// it open-loop from at most two generator goroutines (one publishes, one
// moves clients), checks every delivery against an oracle the generator
// computes itself, and prints end-to-end and per-layer metrics.
//
//	perfbench --workload fleet|city|tcp-transit --seed N --seconds S --trace 0|1
//	perfbench --table records.jsonl      # README reference table from run records
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones; with --trace 1 the per-layer ones, taken from a run
// that records spans around every call the benchmark makes into a layer.
// See README.md for the workloads, the metrics and how failures count.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	record   string
}

// spec is the part of BENCHMARK.json a run reports against: the gated
// end-to-end metrics (printed by untraced runs) and per-layer metrics
// (printed by traced runs), each with its unit.
type spec struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (spec, error) {
	var sp spec
	b, err := os.ReadFile(path)
	if err != nil {
		return sp, err
	}
	if err := json.Unmarshal(b, &sp); err != nil {
		return sp, fmt.Errorf("%s: %w", path, err)
	}
	return sp, nil
}

// units lists every metric a run may print, with its unit.
var units = map[string]string{
	"setup_s":              "s",
	"heap_mb":              "MB",
	"deliver_p50_us":       "us",
	"deliver_p90_us":       "us",
	"deliver_p99_us":       "us",
	"capacity_deliv_per_s": "1/s",
	"handoff_p50_us":       "us",
	"handoff_p99_us":       "us",
	"locmove_p50_us":       "us",
	"locmove_p99_us":       "us",

	"loadgen.lateness_p99_us":            "us",
	"trace.overhead_p50_us":              "us",
	"trace.span_ns":                      "ns",
	"runtime.cpu_s":                      "s",
	"runtime.alloc_mb":                   "MB",
	"runtime.gc_cycles":                  "count",
	"runtime.gc_pause_ms":                "ms",
	"core.publish_call_us":               "us",
	"core.moveto_call_us":                "us",
	"core.setlocation_call_us":           "us",
	"core.subscribe_call_us":             "us",
	"broker.processed_per_pub":           "count",
	"broker.mean_batch":                  "count",
	"broker.flush_mean_burst":            "count",
	"broker.link_credit_stalls":          "count",
	"broker.link_queue_highwater":        "count",
	"broker.ctrl_msgs_sent":              "count",
	"broker.relocations_completed":       "count",
	"broker.replay_mean_items":           "count",
	"broker.locupdates_per_move":         "count",
	"routing.table_entries":              "count",
	"routing.match_ns":                   "ns",
	"routing.matched_per_pub":            "count",
	"routing.client_entries_us":          "us",
	"routing.add_us":                     "us",
	"routing.forward_add_us":             "us",
	"routing.forwarded_filters":          "count",
	"filter.match_ns":                    "ns",
	"filter.cover_checks":                "count",
	"message.decode_ns":                  "ns",
	"message.decode_ns.small":            "ns",
	"message.decode_ns.1k":               "ns",
	"wire.encode_ns":                     "ns",
	"wire.encode_ns.small":               "ns",
	"wire.encode_ns.1k":                  "ns",
	"wire.decode_ns":                     "ns",
	"wire.decode_ns.small":               "ns",
	"wire.decode_ns.1k":                  "ns",
	"wire.encodes_per_pub":               "count",
	"wire.bytes_per_pub":                 "B",
	"transport.send_call_us":             "us",
	"transport.notif_msgs_per_pub":       "count",
	"transport.admin_msgs_setup":         "count",
	"transport.control_msgs_per_handoff": "count",
	"transport.admin_msgs_per_move":      "count",
	"locfilter.instantiate_ns":           "ns",
}

// outcome is what one workload run produced.
type outcome struct {
	attempted, failed int64
	e2e               map[string]float64
	layer             map[string]float64
	v                 violations
	spanFile          string
}

// record is the machine-readable form of one run (--record).
type record struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   int                `json:"seconds"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	NProc     int                `json:"nproc"`
	GoVersion string             `json:"go"`
	Metrics   map[string]float64 `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var traceFlag int
	var table string
	fs.StringVar(&o.workload, "workload", "", "workload: fleet, city or tcp-transit")
	fs.Int64Var(&o.seed, "seed", 1, "seed the inputs are generated from")
	fs.IntVar(&o.seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced run printing per-layer metrics")
	fs.StringVar(&o.record, "record", "", "append this run's record (JSON line) to this file")
	fs.StringVar(&table, "table", "", "print the README reference table from a record file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if table != "" {
		if err := printTable(os.Stdout, table); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if o.seconds < 1 || o.seconds > 600 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be in [1, 600]")
		return 2
	}
	o.trace = traceFlag == 1
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	var w workload
	switch o.workload {
	case "fleet":
		w = newFleet(o.seed)
	case "city":
		w = newCity(o.seed)
	case "tcp-transit":
		w = newTCPTransit(o.seed)
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want fleet, city or tcp-transit)\n", o.workload)
		return 2
	}
	out, err := drive(o, w)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return report(o, sp, out)
}

// report prints the human-readable lines, appends the record, and prints
// the result line. It returns the exit code.
func report(o options, sp spec, out *outcome) int {
	correct := out.v.total == 0
	all := map[string]float64{}
	for k, v := range out.e2e {
		all[k] = v
	}
	for k, v := range out.layer {
		all[k] = v
	}
	fmt.Printf("workload %s seed %d seconds %d trace %v nproc %d %s\n",
		o.workload, o.seed, o.seconds, o.trace, runtime.NumCPU(), runtime.Version())
	names := make([]string, 0, len(all))
	for k := range all {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-36s %14.4f %s\n", k, all[k], units[k])
	}
	fmt.Printf("  attempted %d failed %d\n", out.attempted, out.failed)
	if out.spanFile != "" {
		fmt.Printf("  span file %s\n", out.spanFile)
	}
	for _, s := range out.v.list {
		fmt.Println("  VIOLATION", s)
	}
	if out.v.total > len(out.v.list) {
		fmt.Printf("  ... %d violations in all\n", out.v.total)
	}

	if o.record != "" {
		rec := record{
			Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
			Correct: correct, Attempted: out.attempted, Failed: out.failed,
			NProc: runtime.NumCPU(), GoVersion: runtime.Version(), Metrics: all,
		}
		if err := appendRecord(o.record, rec); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}

	defs := sp.EndToEnd
	if o.trace {
		defs = sp.PerLayer
	}
	res := result{Correct: correct, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]jsonMetric{}}
	for _, d := range defs {
		v, ok := all[d.Name]
		if !ok || units[d.Name] != d.Unit {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s (%s) was not measured in that unit\n", d.Name, d.Unit)
			return 1
		}
		res.Metrics[d.Name] = jsonMetric{Value: v, Unit: d.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// outDir holds the span files of traced runs, relative to the checkout
// root the benchmark runs from.
var outDir = filepath.Join(".bench_build", "perfbench", "out")

// errTimeout reports deliveries that never arrived.
var errTimeout = errors.New("deliveries did not arrive in time")

// spanPath names the span file of a traced run.
func spanPath(o options) string {
	return filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", strings.ReplaceAll(o.workload, "/", "_"), o.seed))
}

// since is a helper for ns offsets from an epoch.
func since(epoch time.Time) int64 { return int64(time.Since(epoch)) }
