// Command aligraph-bench regenerates the paper's evaluation tables and
// figures from the command line. Each experiment preserves the paper's
// comparison shape; absolute numbers reflect the laptop-scale simulator.
//
// Usage:
//
//	aligraph-bench -experiment all -scale 0.1
//	aligraph-bench -experiment table8
//	aligraph-bench -list
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/bench"
)

var experiments = map[string]func(scale float64) string{
	"table3":  bench.Table3,
	"table6":  bench.Table6,
	"figure7": func(s float64) string { return bench.FormatFigure7(bench.Figure7(s, nil)) },
	"figure8": func(s float64) string { return bench.FormatFigure8(bench.Figure8(s)) },
	"figure9": func(s float64) string { return bench.FormatFigure9(bench.Figure9(s)) },
	"table4":  func(s float64) string { return bench.FormatTable4(bench.Table4(s)) },
	"table5":  func(s float64) string { return bench.FormatTable5(bench.Table5(s)) },
	"table7":  func(s float64) string { return bench.FormatTable7(bench.Table7(s)) },
	"table8":  func(s float64) string { return bench.FormatTable8(bench.Table8(s, false)) },
	"table9":  func(s float64) string { return bench.FormatTable9(bench.Table9(s)) },
	"table10": func(s float64) string { return bench.FormatTable10(bench.Table10(s)) },
	"table11": func(s float64) string { return bench.FormatTable11(bench.Table11(s * 5)) },
	"table12": func(s float64) string { return bench.FormatTable12(bench.Table12(s)) },
	"figure1": func(s float64) string {
		return bench.FormatFigure1(bench.Figure1(
			bench.Table8(s, false), bench.Table9(s), bench.Table10(s),
			bench.Table11(s*5), bench.Table12(s)))
	},
	"ablations": func(s float64) string {
		return bench.AblationLockFree(20000, 8) +
			bench.AblationAttrStorage(s) +
			bench.AblationPartitioners(s, 4) +
			bench.AblationNegativeSampling(10000, 50000)
	},
}

func names() []string {
	out := make([]string, 0, len(experiments))
	for k := range experiments {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func main() {
	exp := flag.String("experiment", "all", "experiment to run (or 'all')")
	scale := flag.Float64("scale", 0.1, "dataset scale factor")
	list := flag.Bool("list", false, "list experiments and exit")
	flag.Parse()

	if *list {
		for _, n := range names() {
			fmt.Println(n)
		}
		return
	}
	if *exp == "all" {
		for _, n := range names() {
			fmt.Println(experiments[n](*scale))
		}
		return
	}
	fn, ok := experiments[*exp]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *exp)
		os.Exit(2)
	}
	fmt.Println(fn(*scale))
}
