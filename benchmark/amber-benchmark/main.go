// amber-benchmark is the repository's benchmark: one program image that is
// both roles of a multi-process Amber cluster (the paper's §3 rule — every
// task is an execution of the same program, so class registries agree).
//
//	amber-benchmark serve -node N [-trace]   one core.Node on TCP, until stdin closes
//	amber-benchmark drive [flags]            spawn nodes 0 and 1, join as node 2, generate load
//	amber-benchmark compare A.json B.json BENCHMARK.json   A/A table against the bounds
//
// See ../README.md for the workloads, the metrics and how to phrase a claim.
package main

import (
	"fmt"
	"os"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: amber-benchmark serve|drive|compare [flags]")
		os.Exit(2)
	}
	switch os.Args[1] {
	case "serve":
		os.Exit(serveMain(os.Args[2:]))
	case "drive":
		os.Exit(driveMain(os.Args[2:]))
	case "compare":
		os.Exit(compareMain(os.Args[2:]))
	default:
		fmt.Fprintf(os.Stderr, "amber-benchmark: unknown role %q\n", os.Args[1])
		os.Exit(2)
	}
}
