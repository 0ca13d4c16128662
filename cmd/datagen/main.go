// Command datagen generates a synthetic aligned social network pair and
// writes it as JSON, substituting for the paper's Foursquare–Twitter
// crawl (docs/EXPERIMENTS.md §Dataset).
//
// Usage:
//
//	datagen -preset small -seed 7 -out pair.json
//	datagen -preset paper | gzip > pair.json.gz
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	activeiter "github.com/activeiter/activeiter"
	"github.com/activeiter/activeiter/internal/datagen"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "datagen:", err)
		os.Exit(1)
	}
}

// run is main minus the exit code, for the command's smoke tests.
func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("datagen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	preset := fs.String("preset", "small", "dataset preset: tiny, small, paper, full, xl")
	seed := fs.Int64("seed", 0, "override the preset's seed when non-zero")
	out := fs.String("out", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg, err := datagen.Preset(*preset)
	if err != nil {
		return err
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	pair, err := activeiter.GenerateDataset(cfg)
	if err != nil {
		return err
	}
	w := stdout
	if *out != "" {
		f, ferr := os.Create(*out)
		if ferr != nil {
			return ferr
		}
		defer func() {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
		w = f
	}
	if err := activeiter.WriteAlignedJSON(pair, w); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "generated: %s\n", pair.G1.Stats())
	fmt.Fprintf(stderr, "           %s\n", pair.G2.Stats())
	fmt.Fprintf(stderr, "           anchors=%d\n", len(pair.Anchors))
	return nil
}
