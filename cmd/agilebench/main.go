// agilebench prints the experiment tables of EXPERIMENTS.md: every
// table and series the paper's evaluation implies plus the extension
// studies (DESIGN.md §6). It is a thin printer over exp.All and
// exp.ByID; the virtual-clock tables it prints are pinned byte for
// byte by internal/exp's golden files.
//
// Usage:
//
//	agilebench -exp e3             # one experiment
//	agilebench -exp all            # the full suite (default)
//	agilebench -exp e5 -format csv # machine-readable output
//	agilebench -list               # catalogue
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"agilefpga/internal/exp"
)

func main() {
	expID := flag.String("exp", "all", "experiment id (see -list) or 'all'")
	format := flag.String("format", "text", "output format: text|csv")
	list := flag.Bool("list", false, "list experiments and exit")
	flag.Parse()

	if *list {
		for _, e := range exp.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}

	selected := exp.All()
	if *expID != "all" {
		e, err := exp.ByID(*expID)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			fmt.Fprintln(os.Stderr, "known experiments:")
			for _, e := range exp.All() {
				fmt.Fprintf(os.Stderr, "  %s  %s\n", e.ID, e.Title)
			}
			os.Exit(2)
		}
		selected = []exp.Experiment{e}
	}

	for _, e := range selected {
		tab, err := e.Run()
		if err != nil {
			log.Fatalf("%s: %v", e.ID, err)
		}
		switch *format {
		case "csv":
			fmt.Println(tab.CSV())
		case "text":
			fmt.Println(tab.String())
		default:
			log.Fatalf("unknown format %q", *format)
		}
	}
}
