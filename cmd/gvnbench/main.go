// Command gvnbench regenerates the paper's evaluation artifacts over the
// synthetic SPEC CINT2000-shaped corpus:
//
//	gvnbench -table 1       Table 1: optimistic/balanced/pessimistic times
//	gvnbench -table 2       Table 2: dense/sparse/basic times
//	gvnbench -figure 10     improvements over the Click emulation
//	gvnbench -figure 11     improvements over the Wegman–Zadeck emulation
//	gvnbench -figure 12     optimistic improvements over balanced
//	gvnbench -stats         §4/§5 work statistics
//	gvnbench -all           everything above
//
// -scale shrinks or grows the corpus (1.0 ≈ 690 routines). -j fans the
// measurements out over a worker pool (0 = GOMAXPROCS; results are
// deterministic at any -j) and -cache shares a content-addressed
// analysis cache across the figures and statistics.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"time"

	"pgvn/internal/check"
	"pgvn/internal/core"
	"pgvn/internal/harness"
	"pgvn/internal/obs"
	"pgvn/internal/workload"
)

func main() {
	var (
		table      = flag.Int("table", 0, "regenerate Table 1 or 2")
		figure     = flag.Int("figure", 0, "regenerate Figure 10, 11 or 12")
		stats      = flag.Bool("stats", false, "report the §4/§5 work statistics")
		all        = flag.Bool("all", false, "regenerate every table and figure")
		scale      = flag.Float64("scale", 0.25, "corpus scale (1.0 ≈ 690 routines)")
		csv        = flag.Bool("csv", false, "emit CSV instead of formatted tables")
		bzip2      = flag.Bool("bzip2", false, "include 256.bzip2 (the paper excludes it)")
		ascii      = flag.Bool("ascii", false, "render figures as log-scaled ASCII bars")
		jobs       = flag.Int("j", 0, "measurement worker pool size (0 = GOMAXPROCS)")
		cache      = flag.Bool("cache", false, "share an analysis cache across figures and statistics")
		pre        = flag.Bool("pre", false, "run the GVN-PRE pass inside the measured pipeline (timed: its overhead shows in the tables)")
		chk        = flag.String("check", "off", "verify analysis results during figure/stats measurements: off, fast or full (timing sweeps stay unchecked)")
		jsonOut    = flag.Bool("json", false, "write the metrics snapshot JSON to -metrics-out when done")
		metricsOut = flag.String("metrics-out", "", "metrics snapshot path (default BENCH_<timestamp>.json; implies -json)")
		httpAddr   = flag.String("http", "", "serve /metrics, /progress and /debug/pprof on this address while running")
		traceFlag  = flag.String("trace", "", "write the figure/stats event streams as Chrome trace_event JSON to this file (timing sweeps stay untraced)")
	)
	flag.Parse()
	if !*all && *table == 0 && *figure == 0 && !*stats {
		*all = true
	}
	level, err := check.ParseLevel(*chk)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gvnbench:", err)
		os.Exit(2)
	}
	harness.SetJobs(*jobs)
	harness.SetAnalysisCache(*cache)
	harness.SetCheck(level)
	harness.SetPRE(*pre)
	if *pre {
		fmt.Println("optimizer: GVN-PRE enabled inside the timed pipeline")
	}
	if *metricsOut != "" {
		*jsonOut = true
	}
	var reg *obs.Registry
	if *jsonOut || *httpAddr != "" {
		reg = obs.NewRegistry()
		harness.SetMetrics(reg)
	}
	var col *obs.Collector
	if *traceFlag != "" {
		col = obs.NewCollector(0)
		harness.SetTrace(col)
	}
	if *httpAddr != "" {
		srv, err := obs.Serve(*httpAddr, obs.ServerConfig{
			Registry: reg,
			Progress: obs.RegistryProgress(reg),
			Meta:     map[string]string{"cmd": "gvnbench"},
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "gvnbench:", err)
			os.Exit(1)
		}
		fmt.Printf("observability: http://%s\n", srv.Addr)
		defer srv.Close()
	}
	if level != check.Off {
		fmt.Printf("verification: %s tier on figure/stats measurements\n", level)
	}
	if *jobs <= 0 {
		fmt.Printf("driver: %d workers (GOMAXPROCS)\n", runtime.GOMAXPROCS(0))
	} else {
		fmt.Printf("driver: %d workers\n", *jobs)
	}

	fmt.Printf("generating corpus at scale %.2f …\n", *scale)
	corpus := workload.Corpus(*scale)
	note := "256.bzip2 excluded, as in the paper"
	if *bzip2 {
		corpus = append(corpus, workload.Bzip2(*scale))
		note = "256.bzip2 included (-bzip2)"
	}
	n := 0
	for _, b := range corpus {
		n += len(b.Routines)
	}
	fmt.Printf("%d benchmarks, %d routines (%s)\n\n", len(corpus), n, note)

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "gvnbench:", err)
		os.Exit(1)
	}

	if *all || *table == 1 {
		rows, err := harness.Table1(corpus)
		if err != nil {
			fail(err)
		}
		if *csv {
			fmt.Print(harness.Table1CSV(rows))
		} else {
			fmt.Println(harness.FormatTable1(rows))
		}
	}
	if *all || *table == 2 {
		rows, err := harness.Table2(corpus)
		if err != nil {
			fail(err)
		}
		if *csv {
			fmt.Print(harness.Table2CSV(rows))
		} else {
			fmt.Println(harness.FormatTable2(rows))
		}
	}
	emitFigure := func(fd *harness.FigureData) {
		switch {
		case *csv:
			fmt.Print(harness.FigureCSV(fd))
		case *ascii:
			fmt.Println(harness.RenderFigureASCII(fd))
		default:
			fmt.Println(harness.FormatFigure(fd))
		}
	}
	if *all || *figure == 10 {
		fd, err := harness.Figure("Figure 10: practical optimistic vs Click emulation",
			corpus, core.DefaultConfig(), core.ClickConfig())
		if err != nil {
			fail(err)
		}
		emitFigure(fd)
	}
	if *all || *figure == 11 {
		fd, err := harness.Figure("Figure 11: practical optimistic vs Wegman–Zadeck emulation",
			corpus, core.DefaultConfig(), core.SCCPConfig())
		if err != nil {
			fail(err)
		}
		emitFigure(fd)
	}
	if *all || *figure == 12 {
		fd, err := harness.Figure("Figure 12: optimistic vs balanced value numbering",
			corpus, core.DefaultConfig(), core.BalancedConfig())
		if err != nil {
			fail(err)
		}
		emitFigure(fd)
	}
	if *all || *stats {
		ws, err := harness.MeasureStats(corpus)
		if err != nil {
			fail(err)
		}
		fmt.Println(harness.FormatStats(ws))
	}
	if hits, misses, entries, ok := harness.AnalysisCacheStats(); ok {
		fmt.Printf("analysis cache: %d hits, %d misses, %d entries\n", hits, misses, entries)
	}
	if *jsonOut {
		path := *metricsOut
		if path == "" {
			path = "BENCH_" + time.Now().UTC().Format("20060102T150405Z") + ".json"
		}
		// Toolchain/host facts (go version, GOOS/GOARCH, GOMAXPROCS, CPU
		// count) land in the snapshot's env block via WriteJSON, so
		// BENCH_*.json trajectories from different machines are
		// distinguishable; meta carries only the run parameters.
		meta := map[string]string{
			"cmd":      "gvnbench",
			"scale":    strconv.FormatFloat(*scale, 'f', -1, 64),
			"routines": strconv.Itoa(n),
		}
		if err := writeSnapshot(path, reg, meta); err != nil {
			fail(err)
		}
		fmt.Printf("metrics snapshot: %s\n", path)
	}
	if *traceFlag != "" {
		if err := writeTrace(*traceFlag, col); err != nil {
			fail(err)
		}
		fmt.Printf("event trace: %s\n", *traceFlag)
	}
}

// writeSnapshot writes the registry's stable JSON snapshot to path.
func writeSnapshot(path string, reg *obs.Registry, meta map[string]string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.WriteJSON(f, meta); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeTrace writes the collector's streams as Chrome trace JSON to path.
func writeTrace(path string, col *obs.Collector) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, col.Export(), obs.ChromeOptions{}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
