// Command mcfs imports the deleted flag package and brings back two
// flag names.
package main

import (
	"fmt"

	"mcfs/cmd/internal/runflag" // want "import of mcfs/cmd/internal/runflag: a deleted setting or"
)

func main() {
	fmt.Println(runflag.Depth, "parallelism")        // want "\"parallelism\": a deleted setting or"
	fmt.Println("tolerance", "-calibration-workers") // want "\"tolerance\": BENCH_mc\.json is a golden" "\"-calibration-workers\": a deleted setting or"
}
