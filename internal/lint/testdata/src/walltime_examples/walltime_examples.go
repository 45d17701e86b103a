//eslurmlint:testpath eslurm/examples/clockdemo

// Package walltime_examples pretends (via the testpath directive) to be
// an example program: examples drive engines, so the host clock and
// environment are banned there as well as under internal/.
package walltime_examples

import (
	"os"
	"time"
)

func Run() (time.Time, string) {
	return time.Now(), os.Getenv("HOME") // want "time.Now" "os.Getenv"
}
