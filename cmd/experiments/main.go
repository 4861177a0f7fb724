// Command experiments regenerates every table and figure of the paper's
// evaluation (Table I, Figs. 4, 5, 7, 8, 9) plus the documented extensions
// (ablation, energy, functional verification), printing them and optionally
// writing one .txt and one .csv file per artifact. Searches run through one
// memoizing engine; repeated (layer, array) pairs across experiments are
// costed once.
//
// Examples:
//
//	experiments -out results
//	experiments -only table1,fig8a -quiet
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/cliutil"
	"repro/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	outDir := fs.String("out", "", "directory for per-experiment .txt/.csv files (skipped when empty)")
	quiet := fs.Bool("quiet", false, "print only one summary line per experiment")
	only := fs.String("only", "", fmt.Sprintf("comma-separated experiment ids to run (default all; have %v)",
		strings.Join(experiments.IDs(), ",")))
	version := fs.Bool("version", false, "print the version and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintf(out, "experiments %s\n", cliutil.Version())
		return nil
	}

	var ids []string
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			if id = strings.TrimSpace(id); id != "" {
				ids = append(ids, id)
			}
		}
	}
	results, err := experiments.Run(ids...)
	if err != nil {
		return err
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
	}
	for _, r := range results {
		if *quiet {
			fmt.Fprintf(out, "%-10s %s (%d rows)\n", r.ID, r.Paper, len(r.Table.Rows))
		} else {
			fmt.Fprintln(out, r.String())
			fmt.Fprintln(out)
		}
		if *outDir != "" {
			txt := filepath.Join(*outDir, r.ID+".txt")
			if err := os.WriteFile(txt, []byte(r.String()), 0o644); err != nil {
				return err
			}
			csv := filepath.Join(*outDir, r.ID+".csv")
			if err := os.WriteFile(csv, []byte(r.Table.CSV()), 0o644); err != nil {
				return err
			}
		}
	}
	if *outDir != "" {
		fmt.Fprintf(out, "wrote %d experiments to %s\n", len(results), *outDir)
	}
	return nil
}
