// Package cli holds the flag handling the commands share.
package cli

import (
	"flag"
	"fmt"
	"os"
	"slices"
)

// Parse is flag.Parse, then exit 2 naming the first word that is not a
// flag: flag stops parsing there and would drop every flag after it.
func Parse() {
	if flag.Parse(); flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "%s: unexpected argument %q\n", flag.CommandLine.Name(), flag.Arg(0))
		os.Exit(2)
	}
}

// RefuseIgnored exits 2 naming the first flag set on the command line that
// is not among reads, the flags the chosen mode reads, rather than
// silently dropping it. mode says what ignores it ("-mode demo").
func RefuseIgnored(mode string, reads ...string) {
	var ignored string
	flag.Visit(func(f *flag.Flag) {
		if ignored == "" && !slices.Contains(reads, f.Name) {
			ignored = f.Name
		}
	})
	if ignored != "" {
		fmt.Fprintf(os.Stderr, "%s: %s ignores -%s\n", flag.CommandLine.Name(), mode, ignored)
		os.Exit(2)
	}
}
