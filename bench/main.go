// Command bench is the repository's benchmark of record: four paper-shaped
// workloads driven through the same public calls cmd/retrodns and
// cmd/retrodnsd make, timed end to end and layer by layer from outside.
// BENCHMARK.json at the repository root names it; README.md beside this
// file says what is measured and how the numbers add up.
//
// It is a package of the repository's module, so `go build ./...` builds it
// and `go test ./...` runs its tests. From the repository root:
//
//	go run ./bench run -seed 1                        # all workloads, untraced + traced
//	go run ./bench run -seed 1 -runs 10 -trace 0 -out a.json
//	go run ./bench compare a.json b.json
//	go run ./bench spec > BENCHMARK.json
//	bash bench/run.sh --workload read-mixed --seed 1 --seconds 10 --trace 0
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

func main() {
	os.Exit(dispatch(os.Args[1:], os.Stdout, os.Stderr))
}

func dispatch(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprintln(stderr, "usage: bench run|compare|spec [flags]")
		return 2
	}
	switch args[0] {
	case "run":
		return cmdRun(args[1:], stdout, stderr)
	case "compare":
		return cmdCompare(args[1:], stdout, stderr)
	case "spec":
		return cmdSpec(stdout)
	case "prepare", "oracle", "exec":
		if err := cmdChild(args[0], args[1:], stderr); err != nil {
			fmt.Fprintf(stderr, "bench %s: %v\n", args[0], err)
			return 1
		}
		return 0
	}
	fmt.Fprintf(stderr, "bench: unknown command %q\n", args[0])
	return 2
}

// cmdChild is the three subcommands the parent spawns. They talk through
// files in -dir: prepare.json, expected.json, result.json.
func cmdChild(name string, args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("bench "+name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload name")
		seed     = fs.Int64("seed", 1, "workload seed")
		domains  = fs.Int("domains", 0, "registered domains")
		scans    = fs.Int("scans", 0, "weekly scans")
		dir      = fs.String("dir", "", "working directory")
		seconds  = fs.Float64("seconds", runSeconds, "measuring budget")
		trace    = fs.Bool("trace", false, "record spans, counters and probes")
		oneShot  = fs.Bool("oneshot", false, "exec: stop after the workload's one-shot path")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, ok := findWorkload(*workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *domains > 0 {
		spec.Domains = *domains
	}
	if *scans > 0 {
		spec.Scans = *scans
	}
	if *dir == "" {
		return fmt.Errorf("-dir required")
	}
	switch name {
	case "prepare":
		_, err := runPrepare(spec, *seed, *dir)
		return err
	case "oracle":
		_, err := runOracle(*seed, *dir)
		return err
	default:
		res, err := runExec(execConfig{Spec: spec, Seed: *seed, Dir: *dir, Seconds: *seconds, Trace: *trace, OneShot: *oneShot})
		if err != nil {
			return err
		}
		return writeJSONFile(filepath.Join(*dir, "result.json"), res)
	}
}
