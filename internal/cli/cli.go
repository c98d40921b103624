// Package cli holds the flag handling the commands share.
package cli

import (
	"flag"
	"fmt"
	"os"
)

// Parse is flag.Parse, then exit 2 naming the first word that is not a
// flag: flag stops parsing there and would drop every flag after it.
func Parse() {
	if flag.Parse(); flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "%s: unexpected argument %q\n", flag.CommandLine.Name(), flag.Arg(0))
		os.Exit(2)
	}
}
