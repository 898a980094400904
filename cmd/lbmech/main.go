// Command lbmech regenerates the paper's tables and figures.
//
// Usage:
//
//	lbmech -exp fig1            # print one artifact (table + chart)
//	lbmech -exp all             # print everything
//	lbmech -exp all -csv out/   # also write CSV files
//	lbmech -exp fig2 -svg out/  # also write SVG charts
//	lbmech -checks              # verify every paper claim
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "artifact id (table1, table2, fig1..fig6, des, ext-*) or 'all'/'ext'")
	csvDir := flag.String("csv", "", "directory to write CSV files into")
	svgDir := flag.String("svg", "", "directory to write SVG charts into")
	checks := flag.Bool("checks", false, "verify the paper's quantitative claims and exit")
	outDir := flag.String("out", "", "write the complete report (all artifacts + checks) into this directory and exit")
	flag.Parse()

	if *outDir != "" {
		files, err := experiments.WriteReport(*outDir)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d files under %s\n", len(files), *outDir)
		return
	}

	if *checks {
		if err := runChecks(); err != nil {
			fatal(err)
		}
		return
	}

	var arts []experiments.Artifact
	switch *exp {
	case "all":
		arts = experiments.Artifacts()
	case "ext":
		arts = experiments.ExtendedArtifacts()
	default:
		a, err := experiments.ArtifactByID(*exp)
		if err != nil {
			fatal(err)
		}
		arts = []experiments.Artifact{a}
	}
	for _, a := range arts {
		if err := emit(a, *csvDir, *svgDir); err != nil {
			fatal(fmt.Errorf("%s: %w", a.ID, err))
		}
	}
}

func emit(a experiments.Artifact, csvDir, svgDir string) error {
	tab, err := a.Table()
	if err != nil {
		return err
	}
	tab.Render(os.Stdout)
	fmt.Println()
	if a.Chart != nil {
		ch, err := a.Chart()
		if err != nil {
			return err
		}
		if err := ch.Render(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
		if err := save(svgDir, a.ID+".svg", ch.WriteSVG); err != nil {
			return err
		}
	}
	if a.Line != nil && svgDir != "" {
		lc, err := a.Line()
		if err != nil {
			return err
		}
		if err := save(svgDir, a.ID+"-line.svg", lc.WriteSVG); err != nil {
			return err
		}
	}
	if a.Heat != nil {
		hm, err := a.Heat()
		if err != nil {
			return err
		}
		if err := hm.Render(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
		if err := save(svgDir, a.ID+"-heat.svg", hm.WriteSVG); err != nil {
			return err
		}
	}
	return save(csvDir, a.ID+".csv", tab.WriteCSV)
}

// save writes the file name under dir through write and reports it;
// an empty dir writes nothing.
func save(dir, name string, write func(io.Writer) error) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n\n", path)
	return nil
}

func runChecks() error {
	tab, err := experiments.ChecksTable()
	if err != nil {
		return err
	}
	tab.Render(os.Stdout)
	checks, err := experiments.Checks()
	if err != nil {
		return err
	}
	failed := 0
	for _, c := range checks {
		if !c.Pass {
			failed++
		}
	}
	fmt.Printf("\n%d/%d paper claims reproduced\n", len(checks)-failed, len(checks))
	if failed > 0 {
		os.Exit(1)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lbmech:", err)
	os.Exit(1)
}
