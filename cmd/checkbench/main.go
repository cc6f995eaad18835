// Command checkbench guards the repository's benchmark certificates. It
// loads each BENCH_*.json document and the committed certificate of the
// same name under -history (default bench_history/), and runs
// internal/benchcert's Check over the pair — the same routine each
// generator (cmd/benchincr, cmd/benchfault, cmd/benchserve, cmd/benchbatch)
// takes its exit status from. Check re-derives every claim from its raw
// samples, gates thresholds, and holds gated claims against the committed
// history of the same host shape; see DESIGN.md "Benchmark certificates".
// It exits non-zero on any failure — the hook `make check` uses to fail a
// build whose perf claims regressed.
//
//	go run ./cmd/checkbench                  # checks the default documents
//	go run ./cmd/checkbench A.json B.json    # checks an explicit list
package main

import (
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"hetero/internal/benchcert"
)

// defaultDocs are the certificates `make bench` regenerates.
var defaultDocs = []string{"BENCH_incr.json", "BENCH_fault.json", "BENCH_serve.json", "BENCH_batch.json"}

func main() {
	history := flag.String("history", "bench_history",
		"directory of committed certificates the current claims are held against (empty disables)")
	flag.Parse()
	docs := flag.Args()
	if len(docs) == 0 {
		docs = defaultDocs
	}
	failures := 0
	for _, path := range docs {
		if err := checkDoc(path, *history); err != nil {
			fmt.Fprintf(os.Stderr, "checkbench: %s: %v\n", path, err)
			failures++
			continue
		}
		fmt.Printf("checkbench: %s ok\n", path)
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "checkbench: %d of %d certificates failed (run `make bench` to regenerate)\n",
			failures, len(docs))
		os.Exit(1)
	}
}

// checkDoc checks the certificate at path against its committed namesake
// in historyDir. No history directory, or no committed certificate of that
// name, leaves nothing to compare against.
func checkDoc(path, historyDir string) error {
	cur, err := benchcert.Load(path)
	if err != nil {
		return err
	}
	var committed *benchcert.Cert
	if historyDir != "" {
		prev := filepath.Join(historyDir, filepath.Base(path))
		committed, err = benchcert.Load(prev)
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("committed history %s: %w", prev, err)
		}
	}
	return benchcert.Check(cur, committed)
}
